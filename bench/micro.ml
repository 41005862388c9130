(* Bechamel micro-benchmarks: one Test.make per compilation pass and per
   experiment kernel, so pass-level regressions are visible independently of
   the end-to-end experiment tables. *)

open Bechamel
open Toolkit
open Common
module Opinfo = Cim_compiler.Opinfo
module Lp = Cim_solver.Lp

let chip = Config.dynaplasia

let bert_layer =
  lazy
    ((Option.get (Option.get (Zoo.find "bert-large")).Zoo.layer)
       (Workload.prefill ~batch:1 64))

let resnet = lazy ((Option.get (Zoo.find "resnet18")).Zoo.build (Workload.prefill ~batch:1 1))

let bert_ops = lazy (Opinfo.extract chip (Lazy.force bert_layer))

let sample_lp =
  {
    Lp.n_vars = 6;
    maximize = [| 3.; 2.; 4.; 1.; 5.; 2. |];
    rows =
      [
        ([| 1.; 1.; 1.; 1.; 1.; 1. |], Lp.Le, 10.);
        ([| 2.; 1.; 0.; 3.; 0.; 1. |], Lp.Le, 12.);
        ([| 0.; 1.; 2.; 0.; 1.; 0. |], Lp.Ge, 2.);
        ([| 1.; 0.; 0.; 1.; 0.; 1. |], Lp.Eq, 4.);
      ];
    lower = Array.make 6 0.;
    upper = Array.make 6 infinity;
  }

(* ---- solver micro-benchmark ---------------------------------------------- *)

(* Per-MILP solver cost on real segment models (resnet18 CNN windows,
   bert-large transformer windows): the shipped warm-started branch and
   bound ("revised", at the compiler's 5e-3 gap) against the test-only
   cold reference over the dense tableau ("dense", Oracle.milp at gap 0;
   one LP solve per node) in the same run. Wall-clock from repeated timed
   solves, pivot/refactorization counts from the solvers' own metrics.
   Emitted as a Table so `--json` captures it (BENCH_solver.json in CI). *)

let resnet_ops = lazy (Opinfo.extract chip (Lazy.force resnet))

module Metrics = Cim_obs.Metrics
module Milp = Cim_solver.Milp
module Oracle = Cim_oracle.Oracle

let solver_windows =
  [ ("resnet18", resnet_ops, 0, 4); ("resnet18", resnet_ops, 5, 9);
    ("bert-large", bert_ops, 0, 3); ("bert-large", bert_ops, 4, 9);
    ("bert-large", bert_ops, 0, 9) ]

let run_solver () =
  section "solver | per-MILP pivots, refactorizations, wall-clock";
  let reps = 20 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "solver micro-benchmark: per-MILP cost on segment models (mean of %d solves)"
           reps)
      [ ("segment", Table.Left); ("backend", Table.Left);
        ("wall (ms)", Table.Right); ("pivots", Table.Right);
        ("refactorizations", Table.Right); ("bb nodes", Table.Right) ]
  in
  List.iter
    (fun (model, ops, lo, hi) ->
      let ops = Lazy.force ops in
      let hi = min hi (Array.length ops - 1) in
      let p, kinds = Alloc.segment_problem chip ops ~lo ~hi in
      List.iter
        (fun (bname, solve, pivot_counter, node_counter) ->
          Metrics.set_enabled true;
          Metrics.reset ();
          let t0 = Unix.gettimeofday () in
          for _ = 1 to reps do
            ignore (solve p ~kinds)
          done;
          let wall = (Unix.gettimeofday () -. t0) /. float_of_int reps in
          let per c =
            Metrics.counter_value (Metrics.counter c) /. float_of_int reps
          in
          let pivots = per pivot_counter in
          let refactors = per "solver.simplex.refactorizations" in
          let nodes = per node_counter in
          Metrics.set_enabled false;
          Metrics.reset ();
          Table.add_row tbl
            [ Printf.sprintf "%s %d..%d" model lo hi; bname;
              Table.cell_f ~digits:4 (wall *. 1e3);
              Table.cell_f ~digits:1 pivots;
              Table.cell_f ~digits:1 refactors;
              Table.cell_f ~digits:1 nodes ])
        [ ("revised", (fun p ~kinds -> Milp.solve ~gap:5e-3 p ~kinds),
           "solver.simplex.pivots", "solver.bb.nodes");
          ("dense", (fun p ~kinds -> Oracle.milp p ~kinds),
           "solver.lp_dense.pivots", "solver.lp_dense.solves") ])
    solver_windows;
  Table.print tbl

let tests =
  Test.make_grouped ~name:"cmswitch"
    [
      Test.make ~name:"graph-build/bert-layer"
        (Staged.stage (fun () ->
             (Option.get (Option.get (Zoo.find "bert-large")).Zoo.layer)
               (Workload.prefill ~batch:1 64)));
      Test.make ~name:"opinfo-extract/bert-layer"
        (Staged.stage (fun () -> Opinfo.extract chip (Lazy.force bert_layer)));
      Test.make ~name:"mip-alloc/segment-of-4"
        (Staged.stage (fun () ->
             let ops = Lazy.force bert_ops in
             Cim_compiler.Alloc.solve chip ops ~lo:0
               ~hi:(min 3 (Array.length ops - 1))));
      Test.make ~name:"dp-segment/bert-layer"
        (Staged.stage (fun () ->
             Cim_compiler.Segment.run chip (Lazy.force bert_ops)));
      Test.make ~name:"compile/bert-layer"
        (Staged.stage (fun () -> Cmswitch.compile chip (Lazy.force bert_layer)));
      Test.make ~name:"compile/resnet18"
        (Staged.stage (fun () -> Cmswitch.compile chip (Lazy.force resnet)));
      Test.make ~name:"lp-simplex/6var"
        (Staged.stage (fun () -> Lp.solve sample_lp));
      Test.make ~name:"shape-infer/resnet18"
        (Staged.stage (fun () -> Cim_nnir.Shape_infer.infer (Lazy.force resnet)));
    ]

let run () =
  section "micro | bechamel pass-level benchmarks";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let tbl =
    Table.create ~title:"per-run wall time (OLS estimate)"
      [ ("benchmark", Table.Left); ("time/run", Table.Right) ]
  in
  List.iter
    (fun (name, o) ->
      let est =
        match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> nan
      in
      let pretty =
        if Float.is_nan est then "n/a"
        else if est >= 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est >= 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est >= 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Table.add_row tbl [ name; pretty ])
    (List.sort compare rows);
  Table.print tbl
