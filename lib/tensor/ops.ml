let matmul a b =
  let da = Tensor.data a and db = Tensor.data b in
  match (Tensor.shape a, Tensor.shape b) with
  | [ m; k ], [ k'; n ] when k = k' ->
    Tensor.create (Shape.of_list [ m; n ]) (Kernels.matmul2d da 0 db 0 ~m ~k ~n)
  | [ bdim; m; k ], [ k'; n ] when k = k' ->
    (* batch slices are indexed with offsets, not copied per iteration *)
    let out = Tensor.zeros (Shape.of_list [ bdim; m; n ]) in
    for bi = 0 to bdim - 1 do
      let r = Kernels.matmul2d da (bi * m * k) db 0 ~m ~k ~n in
      Array.blit r 0 (Tensor.data out) (bi * m * n) (m * n)
    done;
    out
  | [ bdim; m; k ], [ bdim'; k'; n ] when k = k' && bdim = bdim' ->
    let out = Tensor.zeros (Shape.of_list [ bdim; m; n ]) in
    for bi = 0 to bdim - 1 do
      let r = Kernels.matmul2d da (bi * m * k) db (bi * k * n) ~m ~k ~n in
      Array.blit r 0 (Tensor.data out) (bi * m * n) (m * n)
    done;
    out
  | sa, sb ->
    invalid_arg
      (Printf.sprintf "Ops.matmul: incompatible shapes %s x %s"
         (Shape.to_string sa) (Shape.to_string sb))

(* Row-major odometer over the outer axes of [dims] (all but the last):
   [row o len offs steps] is called once per output row of [len] elements,
   with the flat offset [o] of its first element and, for each stride
   array in [strides], the matching input offset in [offs] and that
   input's step along the row in [steps]. An input's strides are per
   output axis, so a size-1 broadcast axis has stride 0 and a permuted
   axis carries its source stride. A rank-0 output is one row of one
   element. *)
let walk_rows dims (strides : int array array) row =
  let dims, strides =
    if Array.length dims = 0 then ([| 1 |], Array.map (fun _ -> [| 0 |]) strides)
    else (dims, strides)
  in
  let r = Array.length dims in
  let len = dims.(r - 1) in
  let rows = Array.fold_left ( * ) 1 dims / len in
  let steps = Array.map (fun st -> st.(r - 1)) strides in
  let idx = Array.make r 0 in
  let offs = Array.make (Array.length strides) 0 in
  for o = 0 to rows - 1 do
    row (o * len) len offs steps;
    (* carry: bump the innermost outer axis, wrapping into the next one *)
    let ax = ref (r - 2) in
    while !ax >= 0 do
      let a = !ax in
      idx.(a) <- idx.(a) + 1;
      if idx.(a) < dims.(a) then begin
        Array.iteri (fun i st -> offs.(i) <- offs.(i) + st.(a)) strides;
        ax := -1
      end
      else begin
        idx.(a) <- 0;
        Array.iteri (fun i st -> offs.(i) <- offs.(i) - ((dims.(a) - 1) * st.(a))) strides;
        decr ax
      end
    done
  done

let broadcast_op name f a b =
  match Shape.broadcast (Tensor.shape a) (Tensor.shape b) with
  | None ->
    invalid_arg
      (Printf.sprintf "Ops.%s: shapes %s and %s do not broadcast" name
         (Shape.to_string (Tensor.shape a))
         (Shape.to_string (Tensor.shape b)))
  | Some shape ->
    let rank = Shape.rank shape in
    (* rank-pad on the left, then zero the stride of every size-1 axis *)
    let strides s =
      let s = List.init (rank - Shape.rank s) (fun _ -> 1) @ s in
      let st = Shape.strides s in
      List.iteri (fun i d -> if d = 1 then st.(i) <- 0) s;
      st
    in
    let sa = strides (Tensor.shape a) and sb = strides (Tensor.shape b) in
    let out = Tensor.zeros shape in
    let da = Tensor.data a and db = Tensor.data b and dst = Tensor.data out in
    walk_rows (Array.of_list shape) [| sa; sb |] (fun o len offs steps ->
        let ia = offs.(0) and ib = offs.(1) and la = steps.(0) and lb = steps.(1) in
        for j = 0 to len - 1 do
          dst.(o + j) <- f da.(ia + (j * la)) db.(ib + (j * lb))
        done);
    out

let add a b = broadcast_op "add" ( +. ) a b
let mul a b = broadcast_op "mul" ( *. ) a b
let relu = Tensor.map (fun x -> Float.max 0. x)

let gelu =
  let c = sqrt (2. /. Float.pi) in
  Tensor.map (fun x -> 0.5 *. x *. (1. +. tanh (c *. (x +. (0.044715 *. x *. x *. x)))))

let silu = Tensor.map (fun x -> x /. (1. +. exp (-.x)))

(* Apply [f row] to each contiguous slice along the last axis. *)
let along_last_axis t f =
  let shape = Tensor.shape t in
  let d = Shape.dim shape (-1) in
  let rows = Shape.numel shape / d in
  let out = Tensor.zeros shape in
  let src = Tensor.data t and dst = Tensor.data out in
  let row = Array.make d 0. in
  for r = 0 to rows - 1 do
    Array.blit src (r * d) row 0 d;
    let res = f row in
    Array.blit res 0 dst (r * d) d
  done;
  out

let softmax t =
  along_last_axis t (fun row ->
      let m = Array.fold_left Float.max neg_infinity row in
      let exps = Array.map (fun x -> exp (x -. m)) row in
      let s = Array.fold_left ( +. ) 0. exps in
      Array.map (fun e -> e /. s) exps)

let layernorm ?(eps = 1e-5) t ~gamma ~beta =
  let d = Shape.dim (Tensor.shape t) (-1) in
  if Tensor.numel gamma <> d || Tensor.numel beta <> d then
    invalid_arg "Ops.layernorm: gamma/beta length mismatch";
  let g = Tensor.data gamma and b = Tensor.data beta in
  along_last_axis t (fun row ->
      let mu = Array.fold_left ( +. ) 0. row /. float_of_int d in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. row
        /. float_of_int d
      in
      let denom = sqrt (var +. eps) in
      Array.mapi (fun i x -> ((x -. mu) /. denom *. g.(i)) +. b.(i)) row)

let rmsnorm ?(eps = 1e-5) t ~gamma =
  let d = Shape.dim (Tensor.shape t) (-1) in
  if Tensor.numel gamma <> d then invalid_arg "Ops.rmsnorm: gamma length mismatch";
  let g = Tensor.data gamma in
  along_last_axis t (fun row ->
      let ms = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. row /. float_of_int d in
      let denom = sqrt (ms +. eps) in
      Array.mapi (fun i x -> x /. denom *. g.(i)) row)

let transpose2d t =
  match Tensor.shape t with
  | [ m; n ] ->
    let out = Tensor.zeros (Shape.of_list [ n; m ]) in
    let src = Tensor.data t and dst = Tensor.data out in
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        dst.((j * m) + i) <- src.((i * n) + j)
      done
    done;
    out
  | s -> invalid_arg ("Ops.transpose2d: expected rank 2, got " ^ Shape.to_string s)

let permute t perm =
  let shape = Tensor.shape t in
  let r = Shape.rank shape in
  if List.sort compare perm <> List.init r Fun.id then
    invalid_arg "Ops.permute: not a permutation of axes";
  let out_shape = Shape.of_list (List.map (fun i -> Shape.dim shape i) perm) in
  (* output axis k walks input axis perm.(k) *)
  let in_strides = Shape.strides shape in
  let st = Array.of_list (List.map (fun i -> in_strides.(i)) perm) in
  let out = Tensor.zeros out_shape in
  let src = Tensor.data t and dst = Tensor.data out in
  walk_rows (Array.of_list out_shape) [| st |] (fun o len offs steps ->
      let i0 = offs.(0) and step = steps.(0) in
      for j = 0 to len - 1 do
        dst.(o + j) <- src.(i0 + (j * step))
      done);
  out

let out_dim h k stride pad = ((h + (2 * pad) - k) / stride) + 1

let im2col t ~kh ~kw ~stride ~pad =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h kh stride pad and ow = out_dim w kw stride pad in
    let cols = c * kh * kw in
    let out = Tensor.zeros (Shape.of_list [ n * oh * ow; cols ]) in
    let src = Tensor.data t and dst = Tensor.data out in
    for ni = 0 to n - 1 do
      Kernels.im2col src (ni * c * h * w) ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow
        ~dst ~dst_row0:(ni * oh * ow)
    done;
    out
  | s -> invalid_arg ("Ops.im2col: expected NCHW, got " ^ Shape.to_string s)

(* The group slicing / weight gather / scatter around the matmul is pure
   data movement: blit-based loops (the old Tensor.init list-index walks
   dominated small convolutions). *)
let conv2d_with ~matmul:mm t ~weight ?bias ~stride ~pad ?(groups = 1) () =
  match (Tensor.shape t, Tensor.shape weight) with
  | [ n; c; h; w ], [ oc; cg; kh; kw ] when c = cg * groups && oc mod groups = 0 ->
    let oh = out_dim h kh stride pad and ow = out_dim w kw stride pad in
    let ocg = oc / groups in
    let khw = kh * kw in
    let chw = c * h * w
    and ghw = cg * h * w in
    let out = Tensor.zeros (Shape.of_list [ n; oc; oh; ow ]) in
    let dst = Tensor.data out and src = Tensor.data t in
    let wd = Tensor.data weight in
    for g = 0 to groups - 1 do
      (* slice the input channels of this group: one blit per image *)
      let sub = Tensor.zeros (Shape.of_list [ n; cg; h; w ]) in
      let sd = Tensor.data sub in
      for ni = 0 to n - 1 do
        Array.blit src ((ni * chw) + (g * ghw)) sd (ni * ghw) ghw
      done;
      let patches = im2col sub ~kh ~kw ~stride ~pad in
      (* weight rows for this group: [ocg; cg*kh*kw] transposed to [cg*kh*kw; ocg] *)
      let wmat = Tensor.zeros (Shape.of_list [ cg * khw; ocg ]) in
      let wm = Tensor.data wmat in
      for oi = 0 to ocg - 1 do
        let wbase = ((g * ocg) + oi) * cg * khw in
        for ki = 0 to (cg * khw) - 1 do
          wm.((ki * ocg) + oi) <- wd.(wbase + ki)
        done
      done;
      let res = mm patches wmat in
      (* res is [n*oh*ow; ocg]; scatter back to NCHW *)
      let rd = Tensor.data res in
      for ni = 0 to n - 1 do
        for oi = 0 to ocg - 1 do
          let obase = ((ni * oc) + (g * ocg) + oi) * oh * ow in
          for oy = 0 to oh - 1 do
            let rbase = (((ni * oh) + oy) * ow * ocg) + oi in
            for ox = 0 to ow - 1 do
              dst.(obase + (oy * ow) + ox) <- rd.(rbase + (ox * ocg))
            done
          done
        done
      done
    done;
    (match bias with
    | None -> ()
    | Some b ->
      if Tensor.numel b <> oc then invalid_arg "Ops.conv2d: bias length mismatch";
      let bd = Tensor.data b in
      for ni = 0 to n - 1 do
        for ci = 0 to oc - 1 do
          let base = ((ni * oc) + ci) * oh * ow in
          let bv = bd.(ci) in
          for i = 0 to (oh * ow) - 1 do
            dst.(base + i) <- dst.(base + i) +. bv
          done
        done
      done);
    out
  | si, sw ->
    invalid_arg
      (Printf.sprintf "Ops.conv2d: incompatible shapes %s (w %s, groups %d)"
         (Shape.to_string si) (Shape.to_string sw) groups)

let conv2d t ~weight ?bias ~stride ~pad ?groups () =
  conv2d_with ~matmul t ~weight ?bias ~stride ~pad ?groups ()

let clip t ~lo ~hi =
  if hi < lo then invalid_arg "Ops.clip: hi < lo";
  Tensor.map (fun x -> Float.min hi (Float.max lo x)) t

(* Pool windows are read by index arithmetic over the NCHW plane of each
   (image, channel): taps in ascending [ky], [kx], out-of-bounds taps
   skipped. *)
let pool2d name t ~k ~stride ~pad ~init ~step ~finish =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h k stride pad and ow = out_dim w k stride pad in
    let out = Tensor.zeros (Shape.of_list [ n; c; oh; ow ]) in
    let src = Tensor.data t and dst = Tensor.data out in
    for plane = 0 to (n * c) - 1 do
      let ibase = plane * h * w and obase = plane * oh * ow in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref init in
          for ky = 0 to k - 1 do
            let iy = (oy * stride) + ky - pad in
            if iy >= 0 && iy < h then
              for kx = 0 to k - 1 do
                let ix = (ox * stride) + kx - pad in
                if ix >= 0 && ix < w then
                  acc := step !acc src.(ibase + (iy * w) + ix)
              done
          done;
          dst.(obase + (oy * ow) + ox) <- finish !acc
        done
      done
    done;
    out
  | s -> invalid_arg (Printf.sprintf "Ops.%s: expected NCHW, got %s" name (Shape.to_string s))

let maxpool2d t ~k ~stride ?(pad = 0) () =
  pool2d "maxpool2d" t ~k ~stride ~pad ~init:neg_infinity ~step:Float.max
    ~finish:Fun.id

let avgpool2d t ~k ~stride ?(pad = 0) () =
  let div = float_of_int (k * k) in
  pool2d "avgpool2d" t ~k ~stride ~pad ~init:0. ~step:( +. )
    ~finish:(fun s -> s /. div)

let avgpool_global t =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let out = Tensor.zeros (Shape.of_list [ n; c ]) in
    let src = Tensor.data t and dst = Tensor.data out in
    let hw = h * w in
    let div = float_of_int hw in
    for plane = 0 to (n * c) - 1 do
      let s = ref 0. in
      for i = plane * hw to ((plane + 1) * hw) - 1 do
        s := !s +. src.(i)
      done;
      dst.(plane) <- !s /. div
    done;
    out
  | s -> invalid_arg ("Ops.avgpool_global: expected NCHW, got " ^ Shape.to_string s)

let concat a b ~axis =
  match Shape.concat_dim (Tensor.shape a) (Tensor.shape b) ~axis with
  | None -> invalid_arg "Ops.concat: incompatible shapes"
  | Some shape ->
    (* per outer index: a's slab along [axis], then b's *)
    let inner = (Shape.strides shape).(axis) in
    let la = Shape.dim (Tensor.shape a) axis * inner
    and lb = Shape.dim (Tensor.shape b) axis * inner in
    let out = Tensor.zeros shape in
    let da = Tensor.data a and db = Tensor.data b and dst = Tensor.data out in
    for o = 0 to (Tensor.numel a / la) - 1 do
      Array.blit da (o * la) dst (o * (la + lb)) la;
      Array.blit db (o * lb) dst ((o * (la + lb)) + la) lb
    done;
    out

let attention ~q ~k ~v ?(causal = false) () =
  match (Tensor.shape q, Tensor.shape k, Tensor.shape v) with
  | [ m; d ], [ l; d' ], [ l'; d'' ] when d = d' && l = l' && d = d'' ->
    let scores = matmul q (transpose2d k) in
    let scale = 1. /. sqrt (float_of_int d) in
    let scores = Tensor.map (fun x -> x *. scale) scores in
    let scores =
      if not causal then scores
      else
        (* query i corresponds to absolute position l - m + i; [scores]
           is a fresh tensor, so mask it in place *)
        let sd = Tensor.data scores in
        for i = 0 to m - 1 do
          for j = max 0 (l - m + i + 1) to l - 1 do
            sd.((i * l) + j) <- neg_infinity
          done
        done;
        scores
    in
    matmul (softmax scores) v
  | _ -> invalid_arg "Ops.attention: expects q:[m;d] k:[l;d] v:[l;d]"
