module BA = Stdlib.Bigarray

type qtensor = { values : Kernels.i8; scale : float; shape : Shape.t }

let clamp_i8 = Kernels.clamp_i8

let quantize_slice data ~off shape =
  let len = Shape.numel shape in
  if off < 0 || off + len > Array.length data then
    invalid_arg "Quant.quantize_slice: slice out of bounds";
  let max_abs = Kernels.max_abs data ~off ~len in
  let scale = if max_abs = 0. then 1. else max_abs /. 127. in
  { values = Kernels.quantize_values data ~off ~len ~scale; scale; shape }

let quantize t = quantize_slice (Tensor.data t) ~off:0 (Tensor.shape t)

let dequantize q =
  let v = q.values in
  let data = Array.create_float (BA.Array1.dim v) in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (float_of_int (BA.Array1.unsafe_get v i) *. q.scale)
  done;
  Tensor.create q.shape data

let requantize acc shape ~in_scale =
  if not (in_scale > 0.) then
    invalid_arg "Quant.requantize: in_scale must be positive";
  let max_abs = Kernels.max_abs_int acc in
  (* Choose the output scale so the widest accumulator maps to 127; all
     zeros keep scale 1 and requantise to zeros. *)
  let scale = if max_abs = 0 then 1. else in_scale *. float_of_int max_abs /. 127. in
  { values = Kernels.requantize_values acc ~in_scale ~scale; scale; shape }

let matmul a b =
  match (a.shape, b.shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
    let acc = Kernels.qmatmul2d a.values b.values ~m ~k ~n in
    requantize acc (Shape.of_list [ m; n ]) ~in_scale:(a.scale *. b.scale)
  | _ -> invalid_arg "Quant.matmul: expects [m;k] x [k;n]"

let quant_error t =
  let q = quantize t in
  Tensor.max_abs_diff t (dequantize q)
