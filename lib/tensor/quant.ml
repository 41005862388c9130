type qtensor = { values : int array; scale : float; shape : Shape.t }

let clamp_i8 = Kernels.clamp_i8

let quantize t =
  let max_abs = Kernels.max_abs (Tensor.data t) in
  let scale = if max_abs = 0. then 1. else max_abs /. 127. in
  { values = Kernels.quantize_values (Tensor.data t) ~scale;
    scale;
    shape = Tensor.shape t }

let dequantize q =
  Tensor.create q.shape (Array.map (fun v -> float_of_int v *. q.scale) q.values)

let requantize acc shape ~in_scale =
  if not (in_scale > 0.) then
    invalid_arg "Quant.requantize: in_scale must be positive";
  let max_abs = Kernels.max_abs_int acc in
  if max_abs = 0 then { values = Array.map (fun _ -> 0) acc; scale = 1.; shape }
  else begin
    (* Choose the output scale so the widest accumulator maps to 127. *)
    let scale = in_scale *. float_of_int max_abs /. 127. in
    { values = Kernels.requantize_values acc ~in_scale ~scale; scale; shape }
  end

let matmul a b =
  match (a.shape, b.shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
    let acc = Kernels.qmatmul2d a.values b.values ~m ~k ~n in
    requantize acc (Shape.of_list [ m; n ]) ~in_scale:(a.scale *. b.scale)
  | _ -> invalid_arg "Quant.matmul: expects [m;k] x [k;n]"

let quant_error t =
  let q = quantize t in
  Tensor.max_abs_diff t (dequantize q)
