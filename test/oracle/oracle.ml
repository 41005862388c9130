open Cim_tensor

let clamp_i8 = Quant.clamp_i8

let matmul2d_boxed da aoff db boff ~m ~k ~n =
  let out = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let av = da.(aoff + (i * k) + p) in
      if av <> 0. then
        for j = 0 to n - 1 do
          out.((i * n) + j) <- out.((i * n) + j) +. (av *. db.(boff + (p * n) + j))
        done
    done
  done;
  out

let matmul a b =
  let da = Tensor.data a and db = Tensor.data b in
  let batched bdim m k n ~bstride =
    let out = Array.make (bdim * m * n) 0. in
    for bi = 0 to bdim - 1 do
      let r = matmul2d_boxed da (bi * m * k) db (bi * bstride) ~m ~k ~n in
      Array.blit r 0 out (bi * m * n) (m * n)
    done;
    Tensor.create (Shape.of_list [ bdim; m; n ]) out
  in
  match (Tensor.shape a, Tensor.shape b) with
  | [ m; k ], [ k'; n ] when k = k' ->
    Tensor.create (Shape.of_list [ m; n ]) (matmul2d_boxed da 0 db 0 ~m ~k ~n)
  | [ bdim; m; k ], [ k'; n ] when k = k' -> batched bdim m k n ~bstride:0
  | [ bdim; m; k ], [ bdim'; k'; n ] when k = k' && bdim = bdim' ->
    batched bdim m k n ~bstride:(k * n)
  | _ -> invalid_arg "Oracle.matmul: incompatible shapes"

let im2col_boxed src ~n ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow ~dst =
  let cols = c * kh * kw in
  let row = ref 0 in
  for ni = 0 to n - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let base = !row * cols in
        for ci = 0 to c - 1 do
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
              let v =
                if iy < 0 || iy >= h || ix < 0 || ix >= w then 0.
                else src.((((ni * c) + ci) * h * w) + (iy * w) + ix)
              in
              dst.(base + (ci * kh * kw) + (ky * kw) + kx) <- v
            done
          done
        done;
        incr row
      done
    done
  done

let out_dim h k stride pad = ((h + (2 * pad) - k) / stride) + 1

let im2col t ~kh ~kw ~stride ~pad =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h kh stride pad and ow = out_dim w kw stride pad in
    let dst = Array.make (n * oh * ow * c * kh * kw) 0. in
    im2col_boxed (Tensor.data t) ~n ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow ~dst;
    Tensor.create (Shape.of_list [ n * oh * ow; c * kh * kw ]) dst
  | _ -> invalid_arg "Oracle.im2col: expected NCHW"

let conv2d t ~weight ~bias ~stride ~pad ~groups =
  match (Tensor.shape t, Tensor.shape weight) with
  | [ n; c; h; w ], [ oc; cg; kh; kw ] when c = cg * groups && oc mod groups = 0 ->
    let oh = out_dim h kh stride pad and ow = out_dim w kw stride pad in
    let ocg = oc / groups in
    let x = Tensor.data t and wd = Tensor.data weight in
    let out = Array.make (n * oc * oh * ow) 0. in
    for ni = 0 to n - 1 do
      for o = 0 to oc - 1 do
        let g = o / ocg in
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let acc = ref 0. in
            for ci = 0 to cg - 1 do
              for ky = 0 to kh - 1 do
                for kx = 0 to kw - 1 do
                  let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
                  let v =
                    if iy < 0 || iy >= h || ix < 0 || ix >= w then 0.
                    else x.((((ni * c) + (g * cg) + ci) * h * w) + (iy * w) + ix)
                  in
                  if v <> 0. then
                    acc := !acc +. (v *. wd.((((o * cg) + ci) * kh * kw) + (ky * kw) + kx))
                done
              done
            done;
            out.((((ni * oc) + o) * oh * ow) + (oy * ow) + ox) <-
              (match bias with None -> !acc | Some b -> !acc +. (Tensor.data b).(o))
          done
        done
      done
    done;
    Tensor.create (Shape.of_list [ n; oc; oh; ow ]) out
  | _ -> invalid_arg "Oracle.conv2d: incompatible shapes"

let quantize t =
  let max_abs = Tensor.fold (fun acc x -> Float.max acc (Float.abs x)) 0. t in
  let scale = if max_abs = 0. then 1. else max_abs /. 127. in
  let values =
    Array.map (fun x -> clamp_i8 (int_of_float (Float.round (x /. scale)))) (Tensor.data t)
  in
  { Quant.values; scale; shape = Tensor.shape t }

let requantize acc shape ~in_scale =
  let max_abs = Array.fold_left (fun m v -> max m (abs v)) 0 acc in
  if max_abs = 0 then { Quant.values = Array.map (fun _ -> 0) acc; scale = 1.; shape }
  else begin
    let scale = in_scale *. float_of_int max_abs /. 127. in
    let values =
      Array.map
        (fun v ->
          clamp_i8 (int_of_float (Float.round (float_of_int v *. in_scale /. scale))))
        acc
    in
    { Quant.values; scale; shape }
  end

let qmatmul2d_boxed av bv ~m ~k ~n =
  let acc = Array.make (m * n) 0 in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let a = av.((i * k) + p) in
      if a <> 0 then
        for j = 0 to n - 1 do
          acc.((i * n) + j) <- acc.((i * n) + j) + (a * bv.((p * n) + j))
        done
    done
  done;
  acc

let qmatmul (a : Quant.qtensor) (b : Quant.qtensor) =
  match (a.Quant.shape, b.Quant.shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
    requantize
      (qmatmul2d_boxed a.Quant.values b.Quant.values ~m ~k ~n)
      (Shape.of_list [ m; n ])
      ~in_scale:(a.Quant.scale *. b.Quant.scale)
  | _ -> invalid_arg "Oracle.qmatmul: expects [m;k] x [k;n]"
