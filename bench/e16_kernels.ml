(* E16 — kernel engine: the boxed seed loops (the test oracle) vs the
   runtime Bigarray kernels, micro (ns/mac on BERT-shaped matmuls), and a
   jobs sweep over the parallel functional simulation of a bert-large
   encoder block. Every row checks the determinism contract: the runtime
   kernels must be bitwise identical to the oracle (exactly equal int8
   accumulators on the quantized path), and the simulation digest at every
   job count must equal the jobs=1 digest. The speedup column is
   machine-dependent — the jobs sweep only pays off with spare cores — so
   CI asserts identity, not the ratio. *)

open Common
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Quant = Cim_tensor.Quant
module Ops = Cim_tensor.Ops
module Graph = Cim_nnir.Graph
module Functional = Cim_sim.Functional
module Rng = Cim_util.Rng
module Oracle = Cim_oracle.Oracle

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* min over [n] trials: the harness shares the machine with other tenants,
   and the minimum is the least-disturbed sample *)
let best n f =
  let t = ref infinity and r = ref None in
  for _ = 1 to n do
    let v, d = time f in
    r := Some v;
    if d < !t then t := d
  done;
  (Option.get !r, !t)

let run () =
  section "E16 | kernel engine: boxed oracle vs Bigarray + parallel functional sim";
  (* --- micro: BERT-large projection and FFN matmul shapes --- *)
  let tbl =
    Table.create ~title:"matmul kernels (min of 3, seq=64)"
      [ ("kernel", Table.Left); ("shape", Table.Left);
        ("boxed ns/mac", Table.Right); ("bigarray ns/mac", Table.Right);
        ("speedup", Table.Right); ("identical", Table.Left) ]
  in
  let rng = Rng.create 11 in
  let shapes = [ (64, 1024, 1024); (64, 1024, 4096) ] in
  List.iter
    (fun (m, k, n) ->
      let a = Tensor.rand rng (Shape.of_list [ m; k ]) ~lo:(-1.) ~hi:1. in
      let b = Tensor.rand rng (Shape.of_list [ k; n ]) ~lo:(-1.) ~hi:1. in
      let macs = float_of_int (m * k * n) in
      let fbox, tb = best 3 (fun () -> Oracle.matmul a b) in
      let fbig, tg = best 3 (fun () -> Ops.matmul a b) in
      let identical = Tensor.data fbox = Tensor.data fbig in
      Table.add_row tbl
        [ "float64"; Printf.sprintf "%dx%dx%d" m k n;
          Table.cell_f ~digits:2 (tb /. macs *. 1e9);
          Table.cell_f ~digits:2 (tg /. macs *. 1e9);
          Table.cell_speedup (tb /. tg);
          (if identical then "yes" else "NO") ];
      let qa = Quant.quantize a and qb = Quant.quantize b in
      let oa = Oracle.box qa and ob = Oracle.box qb in
      let qbox, tb = best 3 (fun () -> Oracle.qmatmul oa ob) in
      let qbig, tg = best 3 (fun () -> Quant.matmul qa qb) in
      let identical = Oracle.qtensor_equal qbox qbig in
      Table.add_row tbl
        [ "int8"; Printf.sprintf "%dx%dx%d" m k n;
          Table.cell_f ~digits:2 (tb /. macs *. 1e9);
          Table.cell_f ~digits:2 (tg /. macs *. 1e9);
          Table.cell_speedup (tb /. tg);
          (if identical then "yes" else "NO") ])
    shapes;
  Table.print tbl;
  (* --- end-to-end: functional simulation of a bert-large block --- *)
  let e = Option.get (Zoo.find "bert-large") in
  let g0 = (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64) in
  let chip = Config.dynaplasia in
  let r = Cmswitch.compile ~config:Cmswitch.Config.(default |> with_jobs 1) chip g0 in
  let rng = Rng.create 7 in
  let g = Graph.with_random_values rng r.Cmswitch.graph in
  let inputs =
    List.map
      (fun (n, sh) -> (n, Tensor.rand rng sh ~lo:(-1.) ~hi:1.))
      g.Graph.graph_inputs
  in
  let sim ~jobs () = Functional.run chip ~jobs g r.Cmswitch.program ~inputs in
  let tbl =
    Table.create
      ~title:"functional sim, bert-large block (prefill batch=1 seq=64)"
      [ ("jobs", Table.Right); ("cold (s)", Table.Right);
        ("warm (s)", Table.Right); ("speedup", Table.Right);
        ("identical", Table.Left) ]
  in
  let rep1, t1_cold = time (sim ~jobs:1) in
  let _, t1_warm = best 2 (sim ~jobs:1) in
  let d1 = Functional.digest rep1 in
  Table.add_row tbl
    [ "1"; Table.cell_f ~digits:3 t1_cold; Table.cell_f ~digits:3 t1_warm;
      Table.cell_speedup 1.0; "yes" ];
  List.iter
    (fun jobs ->
      let rep, t_cold = time (sim ~jobs) in
      let _, t_warm = best 2 (sim ~jobs) in
      let identical = Functional.digest rep = d1 in
      Table.add_row tbl
        [ string_of_int jobs; Table.cell_f ~digits:3 t_cold;
          Table.cell_f ~digits:3 t_warm;
          Table.cell_speedup (t1_warm /. t_warm);
          (if identical then "yes" else "NO") ])
    [ 2; 4 ];
  Table.print tbl;
  print_endline
    "speedup is vs jobs=1 (warm/warm); identical = the functional-sim\n\
     digest (outputs + stats) matches the jobs=1 digest, byte for byte -\n\
     required at every job count. jobs only pay off with spare cores; the\n\
     kernel win in the micro table is core-count independent"
