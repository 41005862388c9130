(* E18 — lowered MMIO command-stream backend: flatten compiled meta-operator
   programs onto the ISA (command FIFO words + DMA descriptors), measure the
   encoded stream, and run the stream through the simulator's stream entry
   (Functional.run_isa) against the meta-op program it was lowered from.
   Every differential row checks the digest contract: the stream must
   produce exactly the program's report digest (outputs + instruction and
   switch counters), at jobs 1 and 4. The wall-clock columns are
   machine-dependent and reported only; CI asserts the identical and
   round-trip columns. *)

open Common
module Graph = Cim_nnir.Graph
module Tensor = Cim_tensor.Tensor
module Flow = Cim_metaop.Flow
module Isa = Cim_metaop.Isa
module Functional = Cim_sim.Functional
module Rng = Cim_util.Rng

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run () =
  section "E18 | MMIO command-stream ISA: lowering + stream simulation";
  let chip = Config.dynaplasia in
  let models =
    [ ("resnet18", "whole network");
      ("bert-large", "one encoder block") ]
  in
  let compiled =
    List.map
      (fun (key, scope) ->
        let e = Option.get (Zoo.find key) in
        let g0 =
          match e.Zoo.family with
          | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
          | _ -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
        in
        let r = Cmswitch.compile ~config:Cmswitch.Config.(default |> with_jobs 1) chip g0 in
        (key, scope, r))
      models
  in
  (* --- the lowered streams: size and round-trip fidelity --- *)
  let tbl =
    Table.create ~title:"lowered command streams"
      [ ("model", Table.Left); ("scope", Table.Left);
        ("commands", Table.Right); ("words", Table.Right);
        ("bytes", Table.Right); ("bytes/cmd", Table.Right);
        ("round trip", Table.Left) ]
  in
  let images =
    List.map
      (fun (key, scope, r) ->
        let img = Isa.of_flow r.Cmswitch.program in
        let bytes = Isa.encode img in
        let trip =
          Isa.decode bytes = Ok img
          && Flow.to_string (Isa.to_flow img)
             = Flow.to_string r.Cmswitch.program
        in
        Table.add_row tbl
          [ key; scope;
            string_of_int (Isa.cmd_count img);
            string_of_int (Isa.word_count img);
            string_of_int (String.length bytes);
            Table.cell_f ~digits:1
              (float_of_int (String.length bytes)
              /. float_of_int (Isa.cmd_count img));
            (if trip then "yes" else "NO") ];
        (key, r, img))
      compiled
  in
  Table.print tbl;
  (* --- the differential: the stream entry vs the meta-op program --- *)
  let tbl =
    Table.create ~title:"machine-level ISA sim (stream entry) vs meta-op functional sim"
      [ ("model", Table.Left); ("simulator", Table.Left);
        ("jobs", Table.Right); ("time (s)", Table.Right);
        ("identical", Table.Left) ]
  in
  List.iter
    (fun (key, (r : Cmswitch.result), img) ->
      let rng = Rng.create 42 in
      let g = Graph.with_random_values rng r.Cmswitch.graph in
      let inputs =
        List.map
          (fun (n, sh) -> (n, Tensor.rand rng sh ~lo:(-1.) ~hi:1.))
          g.Graph.graph_inputs
      in
      let rep0, t0 =
        time (fun () ->
            Functional.run chip ~jobs:1 g r.Cmswitch.program ~inputs)
      in
      let d0 = Functional.digest rep0 in
      Table.add_row tbl
        [ key; "meta-op functional"; "1"; Table.cell_f ~digits:3 t0; "yes" ];
      List.iter
        (fun jobs ->
          let rep, t =
            time (fun () -> Functional.run_isa chip ~jobs g img ~inputs)
          in
          let identical = Functional.digest rep = d0 in
          Table.add_row tbl
            [ key; "ISA command stream"; string_of_int jobs;
              Table.cell_f ~digits:3 t;
              (if identical then "yes" else "NO") ])
        [ 1; 4 ])
    images;
  Table.print tbl;
  print_endline
    "identical = the command stream's report digest (outputs + compute /\n\
     vector instruction counts + per-array switch counters) matches the\n\
     meta-op program's, byte for byte - required at every job count.\n\
     round trip = decode(encode(img)) = img and raising the flat stream\n\
     back to a Flow program reproduces the compiler's bytes"
