(* E9 — Fig. 18: compilation overhead. Wall-clock compile time of CMSwitch
   vs CIM-MLC per benchmark (the paper averages 20 runs; we use 3 — the
   measurement noise here is far below the 2.8-6.3x ratios of interest).
   The paper also observes CNNs costing ~2.5x more compile time than
   transformers thanks to block reuse.

   Also records the serial-vs-parallel solver fan-out: the same CMSwitch
   compile at --jobs 1 and at the pooled job count, so the uploaded JSON
   carries the wall-clock effect of parallel segment solving (outputs are
   byte-identical by contract; only this column may move). *)

open Common
module Segment = Cim_compiler.Segment

let reps = 3

(* wall clock, not Sys.time: parallel solves burn CPU seconds on every
   worker domain, which is exactly what this experiment must not count *)
let time f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  Stats.mean samples

let graph_of key =
  let e = Option.get (Zoo.find key) in
  match e.Zoo.family with
  | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
  | Zoo.Encoder_only -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
  | Zoo.Decoder_only -> (Option.get e.Zoo.layer) (Workload.decode ~batch:1 64)

let config_with_jobs jobs = Cmswitch.Config.(with_jobs jobs default)

let run () =
  section "E9 | Fig. 18: compilation overhead";
  let chip = Config.dynaplasia in
  (* at least 2 so the parallel column exercises the domain pool even when
     one core is recommended *)
  let par_jobs = max 2 (Pool.default_jobs ()) in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "compile wall-clock (mean of %d runs; parallel = %d jobs)" reps
           par_jobs)
      [ ("model", Table.Left); ("CIM-MLC (s)", Table.Right);
        ("CMSwitch jobs=1 (s)", Table.Right);
        (Printf.sprintf "CMSwitch jobs=%d (s)" par_jobs, Table.Right);
        ("par speedup", Table.Right); ("ratio vs MLC", Table.Right) ]
  in
  let cnn_times = ref [] and tf_times = ref [] in
  List.iter
    (fun key ->
      let g = graph_of key in
      let t_mlc = time (fun () -> Baseline.compile Baseline.Cim_mlc chip g) in
      let t_cms =
        time (fun () -> Cmswitch.compile ~config:(config_with_jobs 1) chip g)
      in
      let t_par =
        time (fun () ->
            Cmswitch.compile ~config:(config_with_jobs par_jobs) chip g)
      in
      let e = Option.get (Zoo.find key) in
      (match e.Zoo.family with
      | Zoo.Cnn -> cnn_times := t_cms :: !cnn_times
      | Zoo.Encoder_only | Zoo.Decoder_only -> tf_times := t_cms :: !tf_times);
      Table.add_row tbl
        [ e.Zoo.display; Table.cell_f ~digits:3 t_mlc;
          Table.cell_f ~digits:3 t_cms; Table.cell_f ~digits:3 t_par;
          Table.cell_speedup (t_cms /. Float.max 1e-6 t_par);
          Table.cell_speedup (t_cms /. Float.max 1e-6 t_mlc) ])
    fig14_models;
  Table.print tbl;
  Printf.printf "CNN mean %.3fs vs transformer mean %.3fs (paper: CNNs ~2.5x transformers)\n"
    (Stats.mean !cnn_times) (Stats.mean !tf_times);
  Printf.printf "paper: CMSwitch compile time 2.8-6.3x CIM-MLC\n"
