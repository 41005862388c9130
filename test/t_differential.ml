(* Differential test of the per-segment MILP (§4.3.2) against a brute-force
   oracle. For tiny segments (<= 3 operators on chips of <= 10 arrays) the
   feasible space of Eq. 5-8 is small enough to enumerate exhaustively: every
   (com, mem_in, mem_out) assignment whose capacity shortfall a best-case
   dependency-reuse assignment can cover. The oracle minimises the same
   Eq. 10 latency the solver linearises, so on Optimal outcomes the plan
   must land within the branch-and-bound gap of the enumerated optimum, and
   the two sides must agree exactly on infeasibility. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Cost = Cim_arch.Cost
module Alloc = Cim_compiler.Alloc
module Ccfg = Cim_compiler.Cmswitch.Config
module Opinfo = Cim_compiler.Opinfo
module Plan = Cim_compiler.Plan
module Intensity = Cim_models.Intensity

let ceil_div = Cim_util.Bytesize.ceil_div

(* ---- random instances ---------------------------------------------------- *)

type op_spec = {
  macs : int;
  in_b : int;        (* byte sizes stay within a few row_bytes so the mem
                        variable caps — and the enumeration — stay small *)
  out_b : int;
  w_b : int;
  minc : int;
  dep_mask : int;    (* bit k set: depends on op k (k < index) *)
}

type instance = { n_arrays : int; specs : op_spec list }

let chip_of inst = Config.scaled ~name:"tiny" Config.dynaplasia ~n_arrays:inst.n_arrays

let ops_of inst =
  Array.of_list
    (List.mapi
       (fun i s ->
         let traffic = max 1 (s.in_b + s.out_b + s.w_b) in
         {
           Opinfo.uid = i;
           node_id = i;
           label = Printf.sprintf "op%d" i;
           kind = (if s.w_b > 0 then Intensity.Static_weight else Intensity.Dynamic_matmul);
           macs = float_of_int s.macs;
           ai = float_of_int s.macs /. float_of_int traffic;
           in_bytes = s.in_b;
           out_bytes = s.out_b;
           weight_bytes = s.w_b;
           stationary_rows = 16;
           stationary_cols = 16;
           replicas = 1;
           min_compute_arrays = s.minc;
           out_lo = 0;
           out_hi = 16;
           inputs = [ "x" ];
           output = Printf.sprintf "t%d" i;
           deps =
             List.filteri (fun k _ -> s.dep_mask land (1 lsl k) <> 0)
               (List.init i Fun.id);
         })
       inst.specs)

let gen_instance =
  let open QCheck.Gen in
  let gen_op i =
    (* macs spans ~1e2..1e6 so instances land on both sides of the
       compute-bound / memory-bound divide *)
    let* e = int_range 2 6 in
    let* m = int_range 1 9 in
    let* in_b = int_range 1 80 in
    let* out_b = int_range 1 80 in
    let* w_b = int_range 0 80 in
    let* minc = int_range 1 2 in
    let* dep_mask = int_range 0 ((1 lsl i) - 1) in
    return { macs = m * int_of_float (10. ** float_of_int e); in_b; out_b; w_b; minc; dep_mask }
  in
  let* nops = int_range 1 3 in
  let* n_arrays = int_range 3 10 in
  let* specs = flatten_l (List.init nops gen_op) in
  return { n_arrays; specs }

let print_instance inst =
  Printf.sprintf "n_arrays=%d [%s]" inst.n_arrays
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf
              "{macs=%d in=%d out=%d w=%d minc=%d deps=%#x}" s.macs s.in_b
              s.out_b s.w_b s.minc s.dep_mask)
          inst.specs))

let arb_instance = QCheck.make ~print:print_instance gen_instance

(* ---- the oracle ---------------------------------------------------------- *)

(* Mirrors Alloc.build's variable bounds exactly. *)
let mem_caps chip (op : Opinfo.t) =
  let n = chip.Chip.n_arrays in
  let row_bytes = max 1 (chip.Chip.cols * chip.Chip.cell_bits / 8) in
  let cap side = min n (ceil_div (max 1 side) row_bytes) in
  (cap (op.Opinfo.in_bytes + op.Opinfo.weight_bytes), cap op.Opinfo.out_bytes)

let dep_pairs (ops : Opinfo.t array) =
  List.concat
    (List.init (Array.length ops) (fun j ->
         List.filter_map
           (fun d -> if d < j then Some (d, j) else None)
           ops.(j).Opinfo.deps))

(* Largest total reuse realisable for a fixed allocation: r_{i,j} bounded by
   the byte cap (Eq. 6) and by the producer's mem_out / consumer's mem_in
   group sums. Pair caps are tiny here, so plain enumeration. *)
let max_reuse chip (ops : Opinfo.t array) pairs allocs =
  let array_bytes = Chip.array_mem_bytes chip in
  let mout = Array.map (fun (a : Plan.op_alloc) -> a.Plan.mem_out) allocs in
  let min_ = Array.map (fun (a : Plan.op_alloc) -> a.Plan.mem_in) allocs in
  let rec go = function
    | [] -> 0
    | (i, j) :: rest ->
      let cap =
        ceil_div
          (max 1 (min ops.(i).Opinfo.out_bytes ops.(j).Opinfo.in_bytes))
          array_bytes
      in
      let best = ref 0 in
      for r = 0 to min cap (min mout.(i) min_.(j)) do
        mout.(i) <- mout.(i) - r;
        min_.(j) <- min_.(j) - r;
        best := max !best (r + go rest);
        mout.(i) <- mout.(i) + r;
        min_.(j) <- min_.(j) + r
      done;
      !best
  in
  go pairs

(* Exhaustive minimum of Eq. 10's max-latency over the feasible space. *)
let oracle chip (ops : Opinfo.t array) =
  let n = chip.Chip.n_arrays in
  let nops = Array.length ops in
  let pairs = dep_pairs ops in
  let allocs =
    Array.init nops (fun i -> { Plan.uid = i; com = 0; mem_in = 0; mem_out = 0 })
  in
  let best = ref infinity in
  let rec assign i used worst =
    if worst >= !best then ()
    else if i = nops then begin
      if used - max_reuse chip ops pairs allocs <= n then best := Float.min !best worst
    end
    else begin
      let op = ops.(i) in
      let cap_in, cap_out = mem_caps chip op in
      for com = op.Opinfo.min_compute_arrays to n do
        for mem_in = 0 to cap_in do
          for mem_out = 0 to cap_out do
            allocs.(i) <- { Plan.uid = i; com; mem_in; mem_out };
            let lat = Alloc.op_latency chip op allocs.(i) in
            assign (i + 1) (used + com + mem_in + mem_out) (Float.max worst lat)
          done
        done
      done
    end
  in
  assign 0 0 0.;
  if !best = infinity then None else Some !best

(* The MILP caps z at a chip-wide throughput bound; when the true optimum
   sits against that cap the solver may legitimately return any alloc at the
   cap, so the gap comparison only applies strictly below it. *)
let z_cap chip (ops : Opinfo.t array) =
  let n = chip.Chip.n_arrays in
  Array.fold_left
    (fun acc (op : Opinfo.t) ->
      if op.Opinfo.macs <= 0. then acc
      else
        Float.min acc
          (Float.min
             (Cost.compute_rate chip ~com:n /. op.Opinfo.macs)
             (Cost.memory_rate chip ~mem:n *. op.Opinfo.ai /. op.Opinfo.macs)))
    infinity ops

(* ---- the property -------------------------------------------------------- *)

let solver_options =
  Ccfg.to_alloc_options (Ccfg.with_milp_max_nodes 50_000 Ccfg.default)

let check inst =
  let chip = chip_of inst in
  let ops = ops_of inst in
  let hi = Array.length ops - 1 in
  let outcome = Alloc.solve_outcome ~options:solver_options chip ops ~lo:0 ~hi in
  match (outcome, oracle chip ops) with
  | Alloc.Infeasible, None -> true
  | Alloc.Infeasible, Some opt ->
    QCheck.Test.fail_reportf "solver infeasible but oracle found latency %.6g" opt
  | (Alloc.Optimal p | Alloc.Incumbent p), None ->
    QCheck.Test.fail_reportf "solver returned a plan (%.6g) on an infeasible instance"
      p.Plan.intra_cycles
  | Alloc.Truncated_no_incumbent, _ ->
    QCheck.Test.fail_reportf "solver exhausted %d nodes on a 3-op instance"
      solver_options.Alloc.milp_max_nodes
  | Alloc.Optimal p, Some opt ->
    (* the plan is a point of the enumerated space: never better than the
       true optimum, and within the 5e-3 branch-and-bound gap of it unless
       the z upper bound is the binding constraint *)
    if p.Plan.intra_cycles < opt *. (1. -. 1e-9) then
      QCheck.Test.fail_reportf "plan %.17g beats the oracle optimum %.17g"
        p.Plan.intra_cycles opt;
    let against_cap = 1. /. opt >= z_cap chip ops *. (1. -. 1e-6) in
    if (not against_cap) && p.Plan.intra_cycles > opt *. 1.01 then
      QCheck.Test.fail_reportf "plan %.17g misses the oracle optimum %.17g by > gap"
        p.Plan.intra_cycles opt;
    true
  | Alloc.Incumbent p, Some opt ->
    (* node-limited: only feasibility is promised *)
    p.Plan.intra_cycles >= opt *. (1. -. 1e-9)

let milp_vs_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MILP matches brute-force oracle" ~count:220
       arb_instance check)

(* ---- revised simplex vs the dense oracle --------------------------------- *)

module Lp = Cim_solver.Lp
module Milp = Cim_solver.Milp
module Oracle = Cim_oracle.Oracle
module Lp_dense = Oracle.Lp_dense

let show_lp_result = function
  | Lp.Optimal s -> Printf.sprintf "Optimal %.9g" s.Lp.objective
  | Lp.Infeasible -> "Infeasible"
  | Lp.Unbounded -> "Unbounded"
  | Lp.Iteration_limit -> "Iteration_limit"

(* the returned vertex must be a point of the stated polytope, not just
   carry the right objective *)
let vertex_feasible (p : Lp.problem) (s : Lp.solution) =
  let tol v = 1e-6 *. (1. +. Float.abs v) in
  let ok = ref true in
  Array.iteri
    (fun j v ->
      if v < p.Lp.lower.(j) -. tol p.Lp.lower.(j) then ok := false;
      if v > p.Lp.upper.(j) +. tol p.Lp.upper.(j) then ok := false)
    s.Lp.values;
  List.iter
    (fun (coeffs, op, rhs) ->
      let lhs = ref 0. in
      Array.iteri (fun j c -> lhs := !lhs +. (c *. s.Lp.values.(j))) coeffs;
      let lhs = !lhs in
      match op with
      | Lp.Le -> if lhs > rhs +. tol rhs then ok := false
      | Lp.Ge -> if lhs < rhs -. tol rhs then ok := false
      | Lp.Eq -> if Float.abs (lhs -. rhs) > tol rhs then ok := false)
    p.Lp.rows;
  !ok

let compare_backends name (p : Lp.problem) =
  match (Lp.solve p, Lp_dense.solve p) with
  | Lp.Optimal r, Lp.Optimal d ->
    let tol = 1e-6 *. (1. +. Float.abs d.Lp.objective) in
    if Float.abs (r.Lp.objective -. d.Lp.objective) > tol then
      QCheck.Test.fail_reportf "%s: revised %.17g, dense oracle %.17g" name
        r.Lp.objective d.Lp.objective;
    if not (vertex_feasible p r) then
      QCheck.Test.fail_reportf "%s: revised vertex violates the polytope" name;
    true
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
  | r, d ->
    QCheck.Test.fail_reportf "%s: revised says %s, dense oracle says %s" name
      (show_lp_result r) (show_lp_result d)

(* The same 220 random segment models, replayed at LP granularity: the
   revised simplex must agree with the dense oracle on the root relaxation
   (objective to 1e-6, returned vertex feasible) and, at gap 0, the
   warm-started branch and bound must find the integral optimum value of a
   plain cold one over the dense oracle (Oracle.milp). *)
let check_segment_lp inst =
  let chip = chip_of inst in
  let ops = ops_of inst in
  let hi = Array.length ops - 1 in
  let p, kinds = Alloc.segment_problem chip ops ~lo:0 ~hi in
  ignore (compare_backends "segment relaxation" p);
  match (Milp.solve ~gap:0. p ~kinds, Oracle.milp p ~kinds) with
  | Milp.Optimal r, Milp.Optimal d ->
    let tol = 1e-6 *. (1. +. Float.abs d.Lp.objective) in
    if Float.abs (r.Lp.objective -. d.Lp.objective) > tol then
      QCheck.Test.fail_reportf "segment MILP: revised %.17g, cold dense B&B %.17g"
        r.Lp.objective d.Lp.objective;
    vertex_feasible p r
    || QCheck.Test.fail_reportf "segment MILP: revised vertex infeasible"
  | Milp.Infeasible, Milp.Infeasible -> true
  | r, d ->
    let show = function
      | Milp.Optimal s -> Printf.sprintf "Optimal %.9g" s.Lp.objective
      | Milp.Infeasible -> "Infeasible"
      | Milp.Unbounded -> "Unbounded"
      | Milp.Node_limit _ -> "Node_limit"
    in
    QCheck.Test.fail_reportf
      "segment MILP: revised says %s, cold dense B&B says %s"
      (show r) (show d)

let segment_lp_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"revised simplex matches dense oracle on segments"
       ~count:220 arb_instance check_segment_lp)

(* Random degenerate / upper-bounded LPs aimed at the paths the segment
   models exercise least: finite boxes whose optima sit on variable bounds
   (bound flips), duplicated and tied rows (degenerate pivots), Eq rows. *)
type lp_spec = {
  ncols : int;
  obj : int list;
  ub_spec : int option list;      (* None = infinity *)
  lrows : (int list * int * int) list;  (* coeffs, op selector, rhs *)
  dup_first : bool;
}

let lp_of_spec spec =
  let n = spec.ncols in
  let arr l = Array.of_list (List.map float_of_int l) in
  let rows =
    List.map
      (fun (coeffs, opsel, rhs) ->
        let op = match opsel mod 10 with
          | 0 | 1 -> Lp.Ge
          | 2 -> Lp.Eq
          | _ -> Lp.Le
        in
        (arr coeffs, op, float_of_int rhs))
      spec.lrows
  in
  let rows =
    match (spec.dup_first, rows) with
    | true, (c, op, rhs) :: _ -> (Array.copy c, op, rhs) :: rows
    | _ -> rows
  in
  {
    Lp.n_vars = n;
    maximize = arr spec.obj;
    rows;
    lower = Array.make n 0.;
    upper =
      Array.of_list
        (List.map
           (function Some u -> float_of_int u | None -> infinity)
           spec.ub_spec);
  }

let gen_lp_spec =
  let open QCheck.Gen in
  let* ncols = int_range 1 4 in
  let* obj = list_repeat ncols (int_range (-3) 3) in
  let* ub_spec =
    list_repeat ncols
      (frequency [ (3, map (fun u -> Some u) (int_range 0 4)); (1, return None) ])
  in
  let* nrows = int_range 0 4 in
  let* lrows =
    list_repeat nrows
      (triple
         (list_repeat ncols (int_range (-2) 2))
         (int_range 0 9)
         (* small rhs set so several rows tie at the optimum *)
         (int_range 0 3))
  in
  let* dup_first = bool in
  return { ncols; obj; ub_spec; lrows; dup_first }

let print_lp_spec spec =
  let p = lp_of_spec spec in
  Printf.sprintf "max [%s] rows=[%s] ub=[%s]"
    (String.concat " " (Array.to_list (Array.map string_of_float p.Lp.maximize)))
    (String.concat "; "
       (List.map
          (fun (c, op, rhs) ->
            Printf.sprintf "[%s] %s %g"
              (String.concat " " (Array.to_list (Array.map string_of_float c)))
              (match op with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=")
              rhs)
          p.Lp.rows))
    (String.concat " " (Array.to_list (Array.map string_of_float p.Lp.upper)))

let degenerate_lp_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"revised simplex matches dense oracle on degenerate boxed LPs"
       ~count:400
       (QCheck.make ~print:print_lp_spec gen_lp_spec)
       (fun spec -> compare_backends "boxed LP" (lp_of_spec spec)))

(* ---- one-chip fleet vs the FCFS serving oracle --------------------------- *)

module Serving = Cim_sim.Serving
module Fleet = Cim_sim.Fleet

(* a random trace (ties included, idle gaps included), a fractional affine
   cost profile, and half the time a deadline tight enough to drop *)
type serve_case = {
  reqs : Serving.request list;
  prefill : float * float;  (* a + b * prompt *)
  decode : float * float;   (* c + d * kv *)
  deadline : float option;
}

let profile_of case =
  let a, b = case.prefill and c, d = case.decode in
  { Serving.prefill_cycles = (fun s -> a +. (b *. float_of_int s));
    decode_cycles = (fun kv -> c +. (d *. float_of_int kv)) }

let gen_serve_case =
  let open QCheck.Gen in
  let frac lo hi = map (fun i -> float_of_int i /. 7.) (int_range lo hi) in
  let* n = int_range 0 12 in
  let* shapes =
    list_repeat n
      (triple
         (frequency [ (1, return 0.); (3, frac 1 2800) ])
         (int_range 1 64) (int_range 0 39))
  in
  let reqs =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) (gap, prompt, output) ->
              let t = t +. gap in
              (t, { Serving.arrival = t; prompt; output } :: acc))
            (0., []) shapes))
  in
  let* prefill = pair (frac 1 140) (frac 0 14) in
  let* decode = pair (frac 1 35) (frac 0 3) in
  let* deadline = opt ~ratio:0.5 (frac 7 21000) in
  return { reqs; prefill; decode; deadline }

let print_serve_case case =
  Printf.sprintf "prefill %h+%h*s decode %h+%h*kv deadline %s reqs [%s]"
    (fst case.prefill) (snd case.prefill) (fst case.decode) (snd case.decode)
    (match case.deadline with None -> "none" | Some d -> Printf.sprintf "%h" d)
    (String.concat "; "
       (List.map
          (fun (r : Serving.request) ->
            Printf.sprintf "%h:%d/%d" r.arrival r.prompt r.output)
          case.reqs))

(* counts and tokens exactly; every float within 1e-9 relative, the gap
   being float addition order (Fleet sums prefill + decode steps before
   adding them to the clock, the oracle adds each step in turn) *)
let check_fleet_fcfs case =
  let profile = profile_of case in
  let f = Fleet.replay ?slo:case.deadline ~chip:Cim_arch.Config.dynaplasia profile case.reqs in
  let o = Oracle.fcfs ?deadline:case.deadline profile case.reqs in
  let int name a b =
    if a <> b then QCheck.Test.fail_reportf "%s: fleet %d, oracle %d" name a b
  in
  let float name a b =
    if Float.abs (a -. b) > 1e-9 *. Float.max 1. (Float.abs b) then
      QCheck.Test.fail_reportf "%s: fleet %.17g, oracle %.17g" name a b
  in
  int "completed" f.Fleet.completed o.Oracle.completed;
  int "dropped" f.Fleet.dropped o.Oracle.dropped;
  int "shed" f.Fleet.shed 0;
  int "tokens" f.Fleet.tokens o.Oracle.tokens;
  float "makespan" f.Fleet.makespan o.Oracle.makespan;
  float "mean latency" f.Fleet.mean_latency o.Oracle.mean_latency;
  float "p95 latency" f.Fleet.p95_latency o.Oracle.p95_latency;
  float "p99 latency" f.Fleet.p99_latency o.Oracle.p99_latency;
  float "mean ttft" f.Fleet.mean_ttft o.Oracle.mean_ttft;
  float "p50 tpt" f.Fleet.p50_tpt o.Oracle.p50_tpt;
  float "p95 tpt" f.Fleet.p95_tpt o.Oracle.p95_tpt;
  float "p99 tpt" f.Fleet.p99_tpt o.Oracle.p99_tpt;
  float "tokens/Mcycle" f.Fleet.tokens_per_megacycle o.Oracle.tokens_per_megacycle;
  true

let fleet_fcfs_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"one-chip fleet matches the FCFS serving oracle"
       ~count:600
       (QCheck.make ~print:print_serve_case gen_serve_case)
       check_fleet_fcfs)

(* A couple of pinned instances covering the interesting branches, so a
   regression reproduces without a QCheck seed. *)
let test_pinned () =
  let feasible =
    { n_arrays = 4;
      specs =
        [ { macs = 400_000; in_b = 64; out_b = 64; w_b = 40; minc = 1; dep_mask = 0 };
          { macs = 900; in_b = 64; out_b = 32; w_b = 0; minc = 1; dep_mask = 1 } ] }
  in
  Alcotest.(check bool) "feasible instance agrees" true (check feasible);
  let infeasible =
    { n_arrays = 3;
      specs =
        List.init 3 (fun i ->
            { macs = 1000; in_b = 8; out_b = 8; w_b = 8; minc = 2;
              dep_mask = (1 lsl i) - 1 }) }
  in
  let chip = chip_of infeasible in
  let ops = ops_of infeasible in
  (match Alloc.solve_outcome ~options:solver_options chip ops ~lo:0 ~hi:2 with
  | Alloc.Infeasible -> ()
  | _ -> Alcotest.fail "6 min arrays on 3 must be infeasible");
  Alcotest.(check bool) "oracle agrees it is infeasible" true
    (oracle chip ops = None)

let suite =
  ( "differential",
    [ milp_vs_oracle;
      segment_lp_differential;
      degenerate_lp_differential;
      Alcotest.test_case "pinned instances" `Quick test_pinned;
      fleet_fcfs_differential ] )
