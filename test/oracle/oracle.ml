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

type qtensor = { values : int array; scale : float; shape : Shape.t }

let box (q : Quant.qtensor) =
  let v = q.Quant.values in
  { values = Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.get v);
    scale = q.Quant.scale;
    shape = q.Quant.shape }

let qtensor_equal o q =
  let b = box q in
  b.values = o.values
  && Int64.bits_of_float b.scale = Int64.bits_of_float o.scale
  && b.shape = o.shape

let quantize t =
  let max_abs = Tensor.fold (fun acc x -> Float.max acc (Float.abs x)) 0. t in
  let scale = if max_abs = 0. then 1. else max_abs /. 127. in
  let values =
    Array.map (fun x -> clamp_i8 (int_of_float (Float.round (x /. scale)))) (Tensor.data t)
  in
  { values; scale; shape = Tensor.shape t }

let requantize acc shape ~in_scale =
  let max_abs = Array.fold_left (fun m v -> max m (abs v)) 0 acc in
  if max_abs = 0 then { values = Array.map (fun _ -> 0) acc; scale = 1.; shape }
  else begin
    let scale = in_scale *. float_of_int max_abs /. 127. in
    let values =
      Array.map
        (fun v ->
          clamp_i8 (int_of_float (Float.round (float_of_int v *. in_scale /. scale))))
        acc
    in
    { values; scale; shape }
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

let qmatmul a b =
  match (a.shape, b.shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
    requantize
      (qmatmul2d_boxed a.values b.values ~m ~k ~n)
      (Shape.of_list [ m; n ])
      ~in_scale:(a.scale *. b.scale)
  | _ -> invalid_arg "Oracle.qmatmul: expects [m;k] x [k;n]"

(* ---- list-index data movement: the seed bodies of Ops' flat-offset
   loops, one Tensor.init index list per output element ---- *)

let broadcast_op f a b =
  match Shape.broadcast (Tensor.shape a) (Tensor.shape b) with
  | None -> invalid_arg "Oracle.broadcast_op: shapes do not broadcast"
  | Some shape ->
    let rank = Shape.rank shape in
    let pad s = List.init (rank - Shape.rank s) (fun _ -> 1) @ s in
    let sa = pad (Tensor.shape a) and sb = pad (Tensor.shape b) in
    let a = Tensor.reshape a (Shape.of_list sa)
    and b = Tensor.reshape b (Shape.of_list sb) in
    Tensor.init shape (fun idx ->
        let clip s = List.map2 (fun i d -> if d = 1 then 0 else i) idx s in
        f (Tensor.get a (clip sa)) (Tensor.get b (clip sb)))

let add a b = broadcast_op ( +. ) a b
let mul a b = broadcast_op ( *. ) a b

let transpose2d t =
  match Tensor.shape t with
  | [ m; n ] ->
    Tensor.init (Shape.of_list [ n; m ]) (fun idx ->
        match idx with
        | [ j; i ] -> Tensor.get t [ i; j ]
        | _ -> assert false)
  | _ -> invalid_arg "Oracle.transpose2d: expected rank 2"

let permute t perm =
  let shape = Tensor.shape t in
  let r = Shape.rank shape in
  let out_shape = Shape.of_list (List.map (fun i -> Shape.dim shape i) perm) in
  Tensor.init out_shape (fun idx ->
      let src = Array.make r 0 in
      List.iteri (fun out_axis in_axis -> src.(in_axis) <- List.nth idx out_axis) perm;
      Tensor.get t (Array.to_list src))

let concat a b ~axis =
  match Shape.concat_dim (Tensor.shape a) (Tensor.shape b) ~axis with
  | None -> invalid_arg "Oracle.concat: incompatible shapes"
  | Some shape ->
    let da = Shape.dim (Tensor.shape a) axis in
    Tensor.init shape (fun idx ->
        let i = List.nth idx axis in
        if i < da then Tensor.get a idx
        else Tensor.get b (List.mapi (fun ax j -> if ax = axis then j - da else j) idx))

let maxpool2d t ~k ~stride ~pad =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h k stride pad and ow = out_dim w k stride pad in
    Tensor.init (Shape.of_list [ n; c; oh; ow ]) (fun idx ->
        match idx with
        | [ ni; ci; oy; ox ] ->
          let best = ref neg_infinity in
          for ky = 0 to k - 1 do
            for kx = 0 to k - 1 do
              let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
              if iy >= 0 && iy < h && ix >= 0 && ix < w then
                best := Float.max !best (Tensor.get t [ ni; ci; iy; ix ])
            done
          done;
          !best
        | _ -> assert false)
  | _ -> invalid_arg "Oracle.maxpool2d: expected NCHW"

let avgpool2d t ~k ~stride ~pad =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h k stride pad and ow = out_dim w k stride pad in
    Tensor.init (Shape.of_list [ n; c; oh; ow ]) (fun idx ->
        match idx with
        | [ ni; ci; oy; ox ] ->
          let acc = ref 0. in
          for ky = 0 to k - 1 do
            for kx = 0 to k - 1 do
              let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
              if iy >= 0 && iy < h && ix >= 0 && ix < w then
                acc := !acc +. Tensor.get t [ ni; ci; iy; ix ]
            done
          done;
          !acc /. float_of_int (k * k)
        | _ -> assert false)
  | _ -> invalid_arg "Oracle.avgpool2d: expected NCHW"

let avgpool_global t =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    Tensor.init (Shape.of_list [ n; c ]) (fun idx ->
        match idx with
        | [ ni; ci ] ->
          let s = ref 0. in
          for yi = 0 to h - 1 do
            for xi = 0 to w - 1 do
              s := !s +. Tensor.get t [ ni; ci; yi; xi ]
            done
          done;
          !s /. float_of_int (h * w)
        | _ -> assert false)
  | _ -> invalid_arg "Oracle.avgpool_global: expected NCHW"

let causal_mask scores =
  match Tensor.shape scores with
  | [ m; l ] ->
    Tensor.init (Shape.of_list [ m; l ]) (fun idx ->
        match idx with
        | [ i; j ] -> if j > l - m + i then neg_infinity else Tensor.get scores [ i; j ]
        | _ -> assert false)
  | _ -> invalid_arg "Oracle.causal_mask: expected rank 2"

let attention ~q ~k ~v ~causal =
  let d = Shape.dim (Tensor.shape q) (-1) in
  let scores = Ops.matmul q (transpose2d k) in
  let scale = 1. /. sqrt (float_of_int d) in
  let scores = Tensor.map (fun x -> x *. scale) scores in
  let scores = if causal then causal_mask scores else scores in
  Ops.matmul (Ops.softmax scores) v

let embedding ids w =
  match Tensor.shape w with
  | [ vocab; d ] ->
    Tensor.init (Shape.of_list (Tensor.shape ids @ [ d ])) (fun idx ->
        let rev = List.rev idx in
        let di = List.hd rev in
        let id_idx = List.rev (List.tl rev) in
        let row = int_of_float (Tensor.get ids id_idx) in
        if row < 0 || row >= vocab then invalid_arg "Oracle.embedding: id out of vocab";
        Tensor.get w [ row; di ])
  | _ -> invalid_arg "Oracle.embedding: weight not [vocab;d]"

let rand rng shape ~lo ~hi = Tensor.init shape (fun _ -> lo +. Cim_util.Rng.float rng (hi -. lo))

(* ---- cold branch and bound over the dense tableau ----------------------- *)

module Lp_dense = Lp_dense
module Lp = Cim_solver.Lp
module Milp = Cim_solver.Milp

let milp ?(eps = 1e-6) ?(max_nodes = 100_000) (p : Lp.problem) ~kinds =
  let incumbent = ref None in
  let nodes = ref 0 and truncated = ref false and unbounded = ref false in
  let first_fractional (values : float array) =
    let rec go j =
      if j >= Array.length kinds then None
      else
        match kinds.(j) with
        | Milp.Integer when Float.abs (values.(j) -. Float.round values.(j)) > eps ->
          Some j
        | Milp.Integer | Milp.Continuous -> go (j + 1)
    in
    go 0
  in
  let rec node lower upper =
    if !nodes >= max_nodes then truncated := true
    else begin
      incr nodes;
      match Lp_dense.solve { p with Lp.lower; upper } with
      | Lp.Iteration_limit -> truncated := true
      | Lp.Infeasible -> ()
      | Lp.Unbounded -> if !nodes = 1 then unbounded := true
      | Lp.Optimal s -> (
        let improves =
          match !incumbent with
          | None -> true
          | Some (i : Lp.solution) -> s.Lp.objective > i.Lp.objective +. 1e-9
        in
        if improves then
          match first_fractional s.Lp.values with
          | None -> incumbent := Some s
          | Some j ->
            let fl = Float.floor s.Lp.values.(j) in
            if fl >= lower.(j) then begin
              let upper' = Array.copy upper in
              upper'.(j) <- fl;
              node lower upper'
            end;
            if fl +. 1. <= upper.(j) && not !truncated then begin
              let lower' = Array.copy lower in
              lower'.(j) <- fl +. 1.;
              node lower' upper
            end)
    end
  in
  node p.Lp.lower p.Lp.upper;
  if !unbounded then Milp.Unbounded
  else if !truncated then Milp.Node_limit !incumbent
  else match !incumbent with None -> Milp.Infeasible | Some s -> Milp.Optimal s

(* ---- single-chip FCFS serving ------------------------------------------- *)

module Serving = Cim_sim.Serving

type fcfs_stats = {
  completed : int;
  dropped : int;
  makespan : float;
  mean_latency : float;
  p95_latency : float;
  p99_latency : float;
  mean_ttft : float;
  p50_tpt : float;
  p95_tpt : float;
  p99_tpt : float;
  tokens : int;
  tokens_per_megacycle : float;
}

let fcfs ?deadline (profile : Serving.cost_profile) requests =
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Oracle.fcfs: deadline must be positive"
  | _ -> ());
  let requests =
    List.sort (fun (a : Serving.request) b -> compare a.arrival b.arrival) requests
  in
  let now = ref 0. in
  let latencies = ref [] and ttfts = ref [] and tpts = ref [] in
  let tokens = ref 0 in
  let completed = ref 0 and dropped = ref 0 in
  List.iter
    (fun (r : Serving.request) ->
      if r.prompt <= 0 || r.output < 0 then
        invalid_arg "Oracle.fcfs: malformed request";
      let start = Float.max !now r.arrival in
      let after_prefill = start +. profile.prefill_cycles r.prompt in
      let finish = ref after_prefill in
      for t = 0 to r.output - 1 do
        finish := !finish +. profile.decode_cycles (r.prompt + t)
      done;
      (* a request that cannot finish within its deadline is dropped on
         arrival and does not occupy the chip *)
      match deadline with
      | Some d when !finish -. r.arrival > d -> incr dropped
      | _ ->
        incr completed;
        ttfts := (after_prefill -. r.arrival) :: !ttfts;
        for t = 0 to r.output - 1 do
          tpts := profile.decode_cycles (r.prompt + t) :: !tpts
        done;
        now := !finish;
        tokens := !tokens + r.output + 1;
        latencies := (!finish -. r.arrival) :: !latencies)
    requests;
  let pct p = function
    | [] -> 0.
    | l -> Cim_util.Stats.percentile_nearest_rank p l
  in
  let mean = function [] -> 0. | l -> Cim_util.Stats.mean l in
  {
    completed = !completed;
    dropped = !dropped;
    makespan = !now;
    mean_latency = mean !latencies;
    p95_latency = pct 95. !latencies;
    p99_latency = pct 99. !latencies;
    mean_ttft = mean !ttfts;
    p50_tpt = pct 50. !tpts;
    p95_tpt = pct 95. !tpts;
    p99_tpt = pct 99. !tpts;
    tokens = !tokens;
    tokens_per_megacycle =
      (if !now > 0. then float_of_int !tokens /. (!now /. 1e6) else 0.);
  }
