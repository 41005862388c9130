(* The repository's benchmark. One invocation runs one workload in-process
   through the library's public functions, checks every op's outputs, and
   prints its metrics by name with their units; the last line of stdout is
   one JSON object {correct, attempted, failed, metrics}.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics (host wall-clock unless marked
   simulated). --trace 1 runs the same workload with spans around each
   call into a layer's public function and reports the per-layer metrics
   taken from those spans; it writes the spans to
   _perfbench/trace-WORKLOAD-SEED.json at exit. Everything runs at the job
   count a user gets by default (Pool.default_jobs). See README.md. *)

module Chip = Cim_arch.Chip
module Arch = Cim_arch.Config
module Faultmap = Cim_arch.Faultmap
module Zoo = Cim_models.Zoo
module Workload = Cim_models.Workload
module Graph = Cim_nnir.Graph
module Tensor = Cim_tensor.Tensor
module Cmswitch = Cim_compiler.Cmswitch
module Config = Cmswitch.Config
module Passes = Cim_compiler.Passes
module Segment = Cim_compiler.Segment
module Bucket = Cim_compiler.Bucket
module Plan = Cim_compiler.Plan
module Store = Cim_cache.Store
module Flow = Cim_metaop.Flow
module Functional = Cim_sim.Functional
module Fleet = Cim_sim.Fleet
module Serving = Cim_sim.Serving
module Stats = Cim_util.Stats
module Rng = Cim_util.Rng

let now = Unix.gettimeofday
let jobs = Cim_util.Pool.default_jobs ()
let work_dir = "_perfbench"

(* repeated set-ups per run; setup_s is their median *)
let setup_reps = 15

(* ---- checks ------------------------------------------------------------- *)

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then raise (Check_failed m)) fmt

let md5 (p : Flow.program) = Digest.to_hex (Digest.string (Flow.to_string p))

let results (mc : Cmswitch.model_cost) =
  List.filter_map Fun.id [ mc.Cmswitch.layer; mc.Cmswitch.whole; mc.Cmswitch.head ]

let program_md5s mc = List.map (fun r -> md5 r.Cmswitch.program) (results mc)

(* every emitted program passes the flow validator *)
let check_programs chip mc =
  List.iter
    (fun r ->
      match Cim_metaop.Check.(errors (run chip r.Cmswitch.program)) with
      | [] -> ()
      | d :: _ ->
        raise
          (Check_failed
             ("Check rejected " ^ r.Cmswitch.graph.Graph.graph_name ^ ": "
             ^ Cim_metaop.Check.diagnostic_to_string d)))
    (results mc)

(* ---- measurement helpers ------------------------------------------------ *)

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* the measured part of an op, under the op's root span *)
let measured f = timed (fun () -> Span.with_span "op" f)

let median = function [] -> 0. | xs -> Stats.median xs

(* The highest percentile with at least ten samples beyond it: the sorted
   sample at rank n-10. Below 20 samples that percentile falls under the
   median, so the maximum stands in. Returns (value, percentile, samples
   beyond). *)
let tail xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n >= 20 then (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, 10)
  else (a.(n - 1), 100., 0)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat work_dir
        (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    rm_rf d;
    d

(* The default pipeline with a span around each pass's [run]. Pass names
   are unchanged, so the pipeline fingerprint and every cache key stay the
   default ones. *)
let traced_passes prefix =
  List.map
    (fun (p : Passes.pass) ->
      { p with
        Passes.run =
          (fun st -> Span.with_span (prefix ^ p.Passes.name) (fun () -> p.Passes.run st)) })
    Passes.default_pipeline

(* off the op path: the ISA lowering of each compiled program *)
let lower_isa_spans mc =
  List.iter
    (fun r ->
      Span.with_span ~parent:(-1) "compiler.lower_isa" (fun () ->
          ignore (Cim_metaop.Isa.of_flow r.Cmswitch.program)))
    (results mc)

let passes_for prefix =
  if !Span.enabled then Some (traced_passes prefix) else None

let compile ?cache ?buckets ?(prefix = "compiler.") chip e w =
  let config =
    Config.default |> Config.with_cache cache |> Config.with_buckets buckets
  in
  Cmswitch.compile_model ~config ?passes:(passes_for prefix) chip e w

(* ---- per-run state ------------------------------------------------------ *)

(* per-layer counts; keys are metric names *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let add_count k v =
  Hashtbl.replace counts k (v +. Option.value (Hashtbl.find_opt counts k) ~default:0.)

let add_dp_stats (mc : Cmswitch.model_cost) =
  List.iter
    (fun r ->
      add_count "solver.mip_solves" (float_of_int r.Cmswitch.dp_stats.Segment.mip_solves);
      add_count "solver.mip_cache_hits"
        (float_of_int r.Cmswitch.dp_stats.Segment.mip_cache_hits))
    (results mc)

let add_store_counters s =
  let c = Store.counters s in
  add_count "cache.hits" (float_of_int c.Store.hits);
  add_count "cache.misses" (float_of_int c.Store.misses);
  add_count "cache.puts" (float_of_int c.Store.puts);
  add_count "cache.invalid" (float_of_int c.Store.invalid);
  add_count "cache.evictions" (float_of_int c.Store.evictions)

let add_disk_stats s =
  let d = Store.disk_stats s in
  add_count "cache.entries" (float_of_int d.Store.total_entries);
  add_count "cache.bytes" (float_of_int d.Store.total_bytes)

(* ---- the cache path: fill a fresh store, then replay from a fresh handle.
   Both start from a collected heap (untimed), like the ops do. *)

let fill_and_warm ~dir ~fill_store compile_with =
  Gc.full_major ();
  let mf, t_fill =
    timed (fun () ->
        Span.with_span "cache.fill" (fun () -> compile_with ~prefix:"fill." fill_store))
  in
  let (mw, warm_store), t_warm =
    timed (fun () ->
        Span.with_span "cache.replay" (fun () ->
            let s = Store.open_dir dir in
            (compile_with ~prefix:"replay." s, s)))
  in
  let c = Store.counters warm_store in
  check (c.Store.hits >= 1 && c.Store.misses = 0)
    "warm compile was not a cache hit (hits %d, misses %d)" c.Store.hits
    c.Store.misses;
  (mf, t_fill, mw, t_warm, warm_store)

(* Untimed: [reps] fill+warm compiles of one program set, each into its
   own fresh directory. Gives the fill figure and cache_warm_p50_s on
   workloads whose op does not touch the cache. The directories are removed
   together at the end, so no fill pays for the previous one's deletes. *)
let cache_probe ~reps ~reference_md5s compile_with =
  let fills = ref [] and warms = ref [] and dirs = ref [] in
  Fun.protect ~finally:(fun () -> List.iter rm_rf !dirs) @@ fun () ->
  for _ = 1 to reps do
    let dir = fresh_dir "cache" in
    dirs := dir :: !dirs;
    let fill_store = Store.open_dir dir in
    let mf, t_fill, mw, t_warm, warm_store =
      fill_and_warm ~dir ~fill_store compile_with
    in
    check
      (program_md5s mf = reference_md5s && program_md5s mw = reference_md5s)
      "cache probe: program md5 differs from the no-cache compile";
    add_store_counters fill_store;
    add_store_counters warm_store;
    if !fills = [] then add_disk_stats fill_store;
    fills := t_fill :: !fills;
    warms := t_warm :: !warms
  done;
  (median !fills, median !warms)

(* ---- the serving scenario ----------------------------------------------- *)

(* Two chips; open-loop Poisson arrivals (in simulated time) at the CLI's
   default gap, half the fleet's service rate; 16 seeded fault events
   spread over the trace; an SLO of twice a request's service time. The
   breaker threshold sits above the event count so every fault is handled
   by recompiling around it: with the CLI's 4-fault breaker the run ends
   when a seed happens to kill both chips, and its figures then measure
   that timing instead of the fleet. *)
let fleet_chips = 2
let fault_events = 16
let tokens_out = 4

type fleet_case = { reqs : Serving.request list; schedule : Fleet.fault_event list }

type scenario = {
  chip : Chip.t;
  graph : Graph.t;  (** planned graph: one block, or a whole CNN *)
  layers : float;  (** passes of [graph] per model pass *)
  pass : float;  (** healthy model pass, cycles *)
  cases : fleet_case array;
}

let request_cycles sc = float_of_int (1 + tokens_out) *. sc.pass

let fleet_config sc =
  { Fleet.chips = fleet_chips;
    slo = Some (2. *. request_cycles sc);
    shed_output = 4;
    max_retries = 3;
    backoff_base = 0.25 *. sc.pass;
    backoff_cap = 4. *. sc.pass;
    breaker_threshold = fault_events + 1;
    recompile_cycles = sc.pass;
    jobs }

let make_scenario ~chip ~graph ~layers ~requests ~n_cases ~seed =
  let r0 = Cmswitch.compile chip graph in
  let pass = r0.Cmswitch.schedule.Plan.total_cycles *. layers in
  let mean_gap = 2. *. (float_of_int (1 + tokens_out) *. pass) /. float_of_int fleet_chips in
  let master = Rng.create seed in
  let cases =
    Array.init n_cases (fun _ ->
        let rng = Rng.split master in
        let reqs =
          Serving.poisson_trace rng ~n:requests ~mean_gap ~prompt:64 ~output:tokens_out
        in
        let horizon =
          List.fold_left (fun acc (r : Serving.request) -> Float.max acc r.Serving.arrival) pass reqs
        in
        let schedule =
          Fleet.random_schedule (Rng.split master) ~chip ~chips:fleet_chips
            ~n:fault_events ~horizon
        in
        { reqs; schedule })
  in
  { chip; graph; layers; pass; cases }

let flat_profile pass =
  { Serving.prefill_cycles = (fun _ -> pass); decode_cycles = (fun _ -> pass) }

(* One Fleet.run. The planner is the benchmark's closure, so each call is
   a span (on whichever pool worker runs it). [healthy] prices the
   fault-free plan; faulted plans are flat per-pass profiles, as the CLI
   does. Fleet counts go to [counts] when [count] is set, and the
   planner's solver counts too when [solver] is. *)
let fleet_run ?healthy ~count ~solver sc case =
  Span.with_span "fleet.run" @@ fun () ->
  let parent = Span.current () in
  let calls = Atomic.make 0 and solves = Atomic.make 0 and hits = Atomic.make 0 in
  let planner ~chip:_ ~faults =
    Span.with_span ~parent "fleet.planner" @@ fun () ->
    Atomic.incr calls;
    let ok = Faultmap.fault_count faults = 0 in
    let config = if ok then Config.default else Config.with_faults (Some faults) Config.default in
    match Cmswitch.recompile ~config sc.chip sc.graph with
    | Error _ -> None
    | Ok o ->
      let st = o.Cmswitch.rc_result.Cmswitch.dp_stats in
      ignore (Atomic.fetch_and_add solves st.Segment.mip_solves);
      ignore (Atomic.fetch_and_add hits st.Segment.mip_cache_hits);
      let profile =
        match healthy with
        | Some p when ok -> p
        | _ ->
          flat_profile
            (o.Cmswitch.rc_result.Cmswitch.schedule.Plan.total_cycles *. sc.layers)
      in
      Some { Fleet.level = o.Cmswitch.rc_level; profile }
  in
  let s = Fleet.run ~config:(fleet_config sc) ~chip:sc.chip planner case.schedule case.reqs in
  check
    (s.Fleet.offered = s.Fleet.completed + s.Fleet.dropped + s.Fleet.shed)
    "fleet conservation: offered %d <> completed %d + dropped %d + shed %d"
    s.Fleet.offered s.Fleet.completed s.Fleet.dropped s.Fleet.shed;
  check (s.Fleet.offered = List.length case.reqs) "fleet offered %d of %d requests"
    s.Fleet.offered (List.length case.reqs);
  if count then begin
    add_count "fleet.planner_calls" (float_of_int (Atomic.get calls));
    add_count "fleet.recompiles" (float_of_int s.Fleet.recompiles);
    add_count "fleet.retries" (float_of_int s.Fleet.retries)
  end;
  if count && solver then begin
    add_count "solver.mip_solves" (float_of_int (Atomic.get solves));
    add_count "solver.mip_cache_hits" (float_of_int (Atomic.get hits))
  end;
  s

(* simulated: median over cases of the p99 latency; completed within the
   SLO (completed minus SLO misses, so a lower bound) over offered *)
let fleet_quality stats =
  let p99 = median (List.map (fun s -> s.Fleet.p99_latency) stats) in
  let good = List.fold_left (fun a s -> a + s.Fleet.completed - s.Fleet.slo_violations) 0 stats in
  let offered = List.fold_left (fun a s -> a + s.Fleet.offered) 0 stats in
  (p99, float_of_int good /. float_of_int offered)

(* ---- the timed loop ----------------------------------------------------- *)

type op_result = {
  op_times : float list;  (** host seconds of each op that passed *)
  attempted : int;
  failed : int;
  loop_s : float;
  overheads : float list;  (** traced minus untraced op time, per pair *)
}

(* Runs ops 0, 1, ... until [seconds] have passed and at least [min_ops]
   ran. [op i] returns its op time. Every op starts from a collected heap,
   as a command in a fresh process does; the collection is not timed.
   Under tracing every op is paired with [bare i], the same op time
   measured with spans off, for trace.overhead_s; the pair's order
   alternates, so the first traced op runs first and sees the cold peak
   RSS. *)
let timed_loop ~seconds ~min_ops ~traced ?bare op =
  let t_start = now () in
  let times = ref [] and failed = ref 0 and n = ref 0 and overheads = ref [] in
  while !n < min_ops || now () -. t_start < seconds do
    let i = !n in
    Atomic.set Span.current_op i;
    (try
       let run_bare () =
         match bare with
         | Some b when traced ->
           Span.enabled := false;
           Gc.full_major ();
           Some (b i)
         | _ -> None
       in
       let t_bare = if i mod 2 = 1 then run_bare () else None in
       Span.enabled := traced;
       Gc.full_major ();
       let t = op i in
       Span.enabled := false;
       let t_bare = if i mod 2 = 0 then run_bare () else t_bare in
       times := t :: !times;
       Option.iter (fun tb -> overheads := (t -. tb) :: !overheads) t_bare
     with e ->
       Span.enabled := false;
       incr failed;
       Printf.eprintf "op %d failed: %s\n%!" i
         (match e with Check_failed m -> m | e -> Printexc.to_string e));
    incr n
  done;
  Atomic.set Span.current_op (-1);
  { op_times = List.rev !times; attempted = !n; failed = !failed;
    loop_s = now () -. t_start; overheads = !overheads }

(* ---- workloads ---------------------------------------------------------- *)

type outcome = {
  res : op_result;
  setup_s : float;
  peak_rss_mb : float;
  e2e : (string * float * string) list;  (** workload-specific end-to-end *)
  fill_s : float;
      (** the fill compile time, measured like cache_warm_p50_s; reported
          ungated, see [fill_note] *)
  notes : string list;
}

(* Peak RSS of the run so far. Read once, right after the timed loop; the
   heap is then compacted, so the untimed probes that follow start from a
   small heap, as a user's compile in a fresh process does, rather than
   paying for marking what the ops left behind. Spans are back on for the
   probes in a traced run. *)
let end_of_loop ~traced =
  let peak = float_of_int (Span.vm_hwm_kb ()) /. 1024. in
  Gc.compact ();
  Span.enabled := traced;
  peak

let find_model key =
  match Zoo.find key with Some e -> e | None -> failwith ("unknown model " ^ key)

(* Set up [setup_reps] times; the median time and the last value. Each
   set-up, like each op, starts from a collected heap (untimed), so the
   garbage of one does not land in the next one's time or in the run's
   peak RSS. *)
let repeated_setup f =
  let xs =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        timed f)
  in
  (fst (List.hd (List.rev xs)), median (List.map snd xs))

let build_graph (e : Zoo.entry) w =
  match e.Zoo.layer with Some l -> (l w, float_of_int e.Zoo.n_layers) | None -> (e.Zoo.build w, 1.)

let fleet_probe_requests = 2000
(* the probes' figures are small and I/O-bound, so a run takes many *)
let cache_probe_reps = 21

(* Untimed: serve this workload's own program on the serving scenario, so
   every workload reports the simulated fleet figures of what it compiled. *)
let fleet_probe sc =
  let s = fleet_run ~count:true ~solver:false sc sc.cases.(0) in
  fleet_quality [ s ]

(* compile_model, weights, Functional.run: cmswitch compile KEY --sim-check *)
let simcheck ~key ~w ~max_rel ~seed ~seconds ~traced =
  let e = find_model key in
  let chip = Arch.dynaplasia in
  let sc, setup_s =
    repeated_setup (fun () ->
        let graph, layers = Span.with_span "models.build" (fun () -> build_graph e w) in
        make_scenario ~chip ~graph ~layers ~requests:fleet_probe_requests ~n_cases:1 ~seed)
  in
  let first = ref None in
  let run_op () =
    let mc = Span.with_span "compiler.compile_model" (fun () -> compile chip e w) in
    let r = List.hd (results mc) in
    let g, inputs =
      Span.with_span "nnir.weights" (fun () ->
          let rng = Rng.create seed in
          let g = Graph.with_random_values rng r.Cmswitch.graph in
          ( g,
            List.map
              (fun (n, shape) -> (n, Tensor.rand rng shape ~lo:(-1.) ~hi:1.))
              g.Graph.graph_inputs ))
    in
    let rep =
      Span.with_span "sim.functional" (fun () ->
          Functional.run chip g r.Cmswitch.program ~inputs)
    in
    (mc, r, g, inputs, rep)
  in
  let op _ =
    let (mc, r, g, inputs, rep), t = measured run_op in
    check_programs chip mc;
    check (rep.Functional.max_rel_err <= max_rel)
      "max_rel_err %.3e exceeds %.2g" rep.Functional.max_rel_err max_rel;
    let d = Functional.digest rep in
    (match !first with
    | None ->
      first := Some (mc, d);
      add_dp_stats mc;
      add_count "sim.compute_instrs" (float_of_int rep.Functional.compute_instrs);
      add_count "sim.vector_instrs" (float_of_int rep.Functional.vector_instrs);
      add_count "sim.switches"
        (float_of_int (fst rep.Functional.switches + snd rep.Functional.switches));
      if !Span.enabled then begin
        (* off the op path: the float reference alone, the timing sim and
           the ISA lowering of the same program *)
        Span.with_span ~parent:(-1) "nnir.reference" (fun () ->
            ignore (Cim_nnir.Exec.run_outputs g inputs));
        Span.with_span ~parent:(-1) "sim.timing" (fun () ->
            ignore (Cim_sim.Timing.run chip r.Cmswitch.program));
        lower_isa_spans mc
      end
    | Some (_, d0) -> check (d = d0) "functional digest %s differs from op 0's %s" d d0);
    t
  in
  let bare _ = snd (timed run_op) in
  (* at least two ops, so a run has the same number of samples, and of
     chances at its peak RSS, whether the host is fast or slow *)
  let res = timed_loop ~seconds ~min_ops:2 ~traced ~bare op in
  let peak = end_of_loop ~traced in
  let mc, digest =
    match !first with Some x -> x | None -> failwith "no op completed"
  in
  let md5s = program_md5s mc in
  let fill, warm =
    cache_probe ~reps:cache_probe_reps ~reference_md5s:md5s (fun ~prefix s -> compile ~cache:s ~prefix chip e w)
  in
  let p99, goodput = fleet_probe sc in
  { res; setup_s; peak_rss_mb = peak; fill_s = fill;
    e2e =
      [ ("cache_warm_p50_s", warm, "s");
        ("model_cycles_geomean", mc.Cmswitch.total_cycles, "cycles");
        ("fleet_p99_latency_cycles", p99, "cycles");
        ("fleet_goodput_ratio", goodput, "ratio") ];
    notes =
      [ Printf.sprintf "op: compile_model %s %s on %s + with_random_values + Functional.run"
          key (Workload.to_string w) chip.Chip.name;
        Printf.sprintf "functional_md5=%s program_md5=%s" digest (String.concat "," md5s);
        "cache_* and fleet_*: untimed probes of this workload's own program \
         (fill+warm compiles; one 2000-request fleet run)" ] }

(* The 40-point grid: every zoo model at its shapes, on both chips. *)
let grid () =
  List.concat_map
    (fun (e : Zoo.entry) ->
      let shapes =
        match e.Zoo.family with
        | Zoo.Cnn -> [ Workload.prefill 1 ]
        | Zoo.Encoder_only -> [ Workload.prefill 64; Workload.prefill 512 ]
        | Zoo.Decoder_only ->
          [ Workload.prefill 64; Workload.decode 64; Workload.decode 2048 ]
      in
      List.concat_map (fun w -> [ (e, w, Arch.dynaplasia); (e, w, Arch.prime) ]) shapes)
    Zoo.all

(* compile-zoo's op is one pass over the grid in seed-shuffled order, each
   point compiled three ways: with no cache, into the pass's fresh cache
   directory (miss+put), and warm from a fresh handle on it (hit+replay).
   The op time is the pass's no-cache compile time. The points span 7 ms
   to 1.6 s, so a median over single points jumps between neighbouring
   points from run to run; the pass total does not. *)
let compile_zoo ~seed ~seconds ~traced =
  let points = Array.of_list (grid ()) in
  let n = Array.length points in
  let (order, sc), setup_s =
    repeated_setup (fun () ->
        Span.with_span "models.build" (fun () ->
            Array.iter (fun (e, w, _) -> ignore (build_graph e w)) points);
        let order = Array.init n Fun.id in
        Rng.shuffle (Rng.create seed) order;
        (* the fleet probe serves the grid's first point *)
        let e, w, chip = points.(0) in
        let graph, layers = build_graph e w in
        (order, make_scenario ~chip ~graph ~layers ~requests:fleet_probe_requests ~n_cases:1 ~seed))
  in
  let sum f xs = Array.fold_left (fun acc x -> acc +. f x) 0. xs in
  let nocache (e, w, chip) =
    timed (fun () ->
        Span.with_span "compiler.compile_model" (fun () -> compile chip e w))
  in
  let cycles = ref [] and fills = ref [] and warms = ref [] and fill_over = ref [] in
  let op i =
    let dir = fresh_dir "zoo" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let fill_store = Store.open_dir dir in
    let point k =
      let ((e, w, chip) as p) = points.(k) in
      let mc, t_nc = nocache p in
      let mf, t_fill, mw, t_warm, warm_store =
        fill_and_warm ~dir ~fill_store (fun ~prefix s -> compile ~cache:s ~prefix chip e w)
      in
      Span.with_span "metaop.check" (fun () ->
          check_programs chip mc;
          let md5s = program_md5s mc in
          check
            (program_md5s mf = md5s && program_md5s mw = md5s)
            "%s %s on %s: no-cache, fill and warm programs differ" e.Zoo.key
            (Workload.to_string w) chip.Chip.name);
      (* counts from the first pass only, so they repeat exactly *)
      if i = 0 then begin
        cycles := mc.Cmswitch.total_cycles :: !cycles;
        add_dp_stats mc;
        add_store_counters warm_store
      end;
      (mc, (t_nc, t_fill, t_warm))
    in
    let pass, _ =
      measured (fun () ->
          Array.map
            (fun k ->
              let mc, times = point k in
              if !Span.enabled then lower_isa_spans mc;
              times)
            order)
    in
    let t_nc = sum (fun (t, _, _) -> t) pass in
    let t_fill = sum (fun (_, t, _) -> t) pass in
    fills := t_fill :: !fills;
    warms := sum (fun (_, _, t) -> t) pass :: !warms;
    fill_over := (t_fill -. t_nc) :: !fill_over;
    if i = 0 then begin
      add_store_counters fill_store;
      add_disk_stats fill_store
    end;
    t_nc
  in
  let bare _ = sum (fun k -> snd (nocache points.(k))) order in
  let res = timed_loop ~seconds ~min_ops:1 ~traced ~bare op in
  let peak = end_of_loop ~traced in
  add_count "cache.fill_overhead_s" (median !fill_over);
  let p99, goodput = fleet_probe sc in
  { res; setup_s; peak_rss_mb = peak; fill_s = median !fills;
    e2e =
      [ ("cache_warm_p50_s", median !warms, "s");
        ("model_cycles_geomean", Stats.geomean !cycles, "cycles");
        ("fleet_p99_latency_cycles", p99, "cycles");
        ("fleet_goodput_ratio", goodput, "ratio") ];
    notes =
      [ Printf.sprintf
          "op: one pass over the %d-point grid (seed-shuffled), each point compiled \
           with no cache (op time), into the pass's cache dir, and warm from a fresh \
           handle; cache_* are the pass's fill and warm totals" n;
        "fleet_*: untimed probe serving the grid's first point (2000 requests)" ] }

(* seeded (trace, fault schedule) cases per run; the op cycles through
   them. Fault schedules differ in how hard their recompiles are, so a run
   samples many of them to keep its median independent of the seed. *)
let serve_cases = 16
let serve_requests = 20000

let serve_faults ~seed ~seconds ~traced =
  let e = find_model "llama2-7b" in
  let chip = Arch.dynaplasia in
  let w = Workload.decode 512 in
  let buckets = Bucket.default in
  let sc, setup_s =
    repeated_setup (fun () ->
        let graph, layers = Span.with_span "models.build" (fun () -> build_graph e w) in
        make_scenario ~chip ~graph ~layers ~requests:serve_requests ~n_cases:serve_cases ~seed)
  in
  let first_stats = ref [] in
  let run_op i =
    (* the fault-free plan prices each length at its bucket ceiling through
       a fresh compilation session, as serve --buckets does *)
    let sess = Cmswitch.session ~config:(Config.with_buckets (Some buckets) Config.default) chip e in
    let step w = (Cmswitch.session_step sess w).Cmswitch.step_cost.Cmswitch.total_cycles in
    let healthy =
      Serving.bucketed_profile ~ceiling:(Bucket.ceiling buckets)
        ~prefill_cycles:(fun s -> step (Workload.prefill s))
        ~decode_cycles:(fun kv -> step (Workload.decode kv))
    in
    fleet_run ~healthy ~count:(i < serve_cases) ~solver:true sc sc.cases.(i mod serve_cases)
  in
  let op i =
    let s, t = measured (fun () -> run_op i) in
    if i < serve_cases then first_stats := s :: !first_stats;
    t
  in
  let bare i = snd (timed (fun () -> run_op (i + serve_cases))) in
  let res = timed_loop ~seconds ~min_ops:serve_cases ~traced ~bare op in
  let peak = end_of_loop ~traced in
  let p99, goodput = fleet_quality !first_stats in
  let mc = compile ~buckets chip e w in
  let md5s = program_md5s mc in
  let fill, warm =
    cache_probe ~reps:cache_probe_reps ~reference_md5s:md5s (fun ~prefix s -> compile ~cache:s ~buckets ~prefix chip e w)
  in
  { res; setup_s; peak_rss_mb = peak; fill_s = fill;
    e2e =
      [ ("cache_warm_p50_s", warm, "s");
        ("model_cycles_geomean", mc.Cmswitch.total_cycles, "cycles");
        ("fleet_p99_latency_cycles", p99, "cycles");
        ("fleet_goodput_ratio", goodput, "ratio") ];
    notes =
      [ Printf.sprintf
          "op: one Fleet.run, llama2-7b decode@512 pow2 buckets, %d chips, %d requests, \
           %d fault events, cases cycle over %d seeded traces" fleet_chips serve_requests
          fault_events serve_cases;
        "cache_* and model_cycles: untimed probe of the bucketed decode@512 program" ] }

let workloads =
  (* int8 sim-check tolerances on max_rel_err (relative to each output's
     max |reference|): the repo's tests hold compiled CNNs to 0.05 and
     random graphs to 0.30; a transformer block's softmax and layer norm
     put it in the second class (gpt2-xl decode measures 0.03 to 0.2) *)
  [ ("simcheck-resnet18",
     fun ~seed -> simcheck ~key:"resnet18" ~w:(Workload.prefill 1) ~max_rel:0.05 ~seed);
    ("simcheck-gpt2xl-decode",
     fun ~seed -> simcheck ~key:"gpt2-xl" ~w:(Workload.decode 1024) ~max_rel:0.30 ~seed);
    ("compile-zoo", compile_zoo);
    ("serve-faults", serve_faults) ]

(* ---- the known defect --------------------------------------------------- *)

(* mobilenetv2 --sim-check fails in the functional sim. Run it once per
   invocation, untimed and outside every metric, so the defect stays in
   view until it is fixed. *)
let known_failures () =
  let e = find_model "mobilenetv2" and chip = Arch.dynaplasia in
  let outcome =
    match
      let mc = compile chip e (Workload.prefill 1) in
      let r = List.hd (results mc) in
      let rng = Rng.create 42 in
      let g = Graph.with_random_values rng r.Cmswitch.graph in
      let inputs =
        List.map (fun (n, s) -> (n, Tensor.rand rng s ~lo:(-1.) ~hi:1.)) g.Graph.graph_inputs
      in
      Functional.run chip g r.Cmswitch.program ~inputs
    with
    | _ -> "passes now: drop it from known_failures"
    | exception e -> (
      match e with Functional.Error m -> m | e -> Printexc.to_string e)
  in
  [ ("mobilenetv2 --sim-check", outcome) ]

(* ---- per-layer metrics from the spans ----------------------------------- *)

let compiler_passes =
  [ "extract"; "segment"; "place"; "schedule"; "probe"; "codegen"; "check"; "lower_isa" ]

let per_layer (o : outcome) =
  let spans = Span.with_child_cover (Span.all ()) in
  (* spans of one op form one sample; a span outside every op is its own *)
  let samples name f =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ((s : Span.t), cover) ->
        if s.Span.name = name then begin
          let key = if s.Span.op >= 0 then s.Span.op else -1 - s.Span.id in
          let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0. in
          Hashtbl.replace tbl key (prev +. f (s, cover))
        end)
      spans;
    Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  in
  let self name = median (samples name Span.self_time) in
  let alloc name = median (samples name (fun (s, _) -> s.Span.alloc_words /. 1e6)) in
  let rss name =
    List.fold_left Float.max 0.
      (samples name (fun (s, _) -> float_of_int s.Span.hwm_step_kb /. 1024.))
  in
  let count k = Option.value (Hashtbl.find_opt counts k) ~default:0. in
  let ratio a b = if b = 0. then 0. else a /. b in
  let op_spans = List.filter (fun ((s : Span.t), _) -> s.Span.name = "op") spans in
  let unaccounted =
    ratio
      (List.fold_left (fun a sc -> a +. Span.self_time sc) 0. op_spans)
      (List.fold_left (fun a ((s : Span.t), _) -> a +. (s.Span.stop -. s.Span.start)) 0. op_spans)
  in
  let fleet_planner = median (samples "fleet.run" (fun (_, cover) -> cover)) in
  [ ("models.build_s", self "models.build", "s") ]
  @ List.concat_map
      (fun p ->
        [ ("compiler." ^ p ^ "_s", self ("compiler." ^ p), "s");
          ("compiler." ^ p ^ "_alloc_mw", alloc ("compiler." ^ p), "Mword") ])
      compiler_passes
  @ [ ("solver.mip_solves", count "solver.mip_solves", "count");
      ("solver.mip_cache_hits", count "solver.mip_cache_hits", "count");
      ("solver.memo_hit_ratio",
       ratio (count "solver.mip_cache_hits")
         (count "solver.mip_solves" +. count "solver.mip_cache_hits"), "ratio") ]
  @ List.map (fun k -> ("cache." ^ k, count ("cache." ^ k), "count"))
      [ "hits"; "misses"; "puts"; "invalid"; "evictions" ]
  @ [ ("cache.hit_ratio",
       ratio (count "cache.hits") (count "cache.hits" +. count "cache.misses"), "ratio");
      ("cache.entries", count "cache.entries", "count");
      ("cache.bytes", count "cache.bytes", "B");
      ("cache.fill_overhead_s", count "cache.fill_overhead_s", "s");
      ("cache.replay_s", self "cache.replay", "s");
      ("cache.fill_p50_s", o.fill_s, "s");
      ("nnir.weights_s", self "nnir.weights", "s");
      ("nnir.weights_alloc_mw", alloc "nnir.weights", "Mword");
      ("nnir.weights_rss_mb", rss "nnir.weights", "MB");
      ("nnir.reference_s", self "nnir.reference", "s");
      ("sim.functional_s", self "sim.functional", "s");
      ("sim.functional_alloc_mw", alloc "sim.functional", "Mword");
      ("sim.functional_rss_mb", rss "sim.functional", "MB");
      ("sim.compute_instrs", count "sim.compute_instrs", "count");
      ("sim.vector_instrs", count "sim.vector_instrs", "count");
      ("sim.switches", count "sim.switches", "count");
      ("sim.timing_s", self "sim.timing", "s");
      ("fleet.loop_s", self "fleet.run", "s");
      ("fleet.planner_s", fleet_planner, "s");
      ("fleet.planner_calls", count "fleet.planner_calls", "count");
      ("fleet.recompiles", count "fleet.recompiles", "count");
      ("fleet.retries", count "fleet.retries", "count");
      ("trace.overhead_s", median o.res.overheads, "s");
      ("trace.unaccounted_ratio", unaccounted, "ratio") ]

(* ---- output ------------------------------------------------------------- *)

let end_to_end (o : outcome) =
  let p50 = median o.res.op_times in
  let tail_v, _, _ = tail o.res.op_times in
  [ ("setup_s", o.setup_s, "s");
    ("op_p50_s", p50, "s");
    ("op_tail_s", tail_v, "s");
    ("ops_per_s", float_of_int (List.length o.res.op_times) /. o.res.loop_s, "1/s");
    ("peak_rss_mb", o.peak_rss_mb, "MB") ]
  @ o.e2e

(* The fill compile is mostly file creation and directory scans. On the
   2-vCPU VM this benchmark was tuned on, its run-to-run spread over ten
   seeds was 0.15 to 0.47 of its median, above the largest bound a gated
   metric may have, so it is printed and traced (cache.fill_p50_s) but not
   gated. *)
let fill_note = "not gated: its spread exceeds any allowed bound on the tuning host"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let traced = !trace = 1 in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Printf.printf "host: nproc=%d ocaml=%s jobs=%d (Pool.default_jobs)\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version jobs;
  Printf.printf "workload: %s seed=%d seconds=%g trace=%d\n%!" !workload !seed !seconds !trace;
  Span.enabled := traced;
  let o = run ~seed:!seed ~seconds:!seconds ~traced in
  Span.enabled := false;
  let known = known_failures () in
  List.iter print_endline o.notes;
  Printf.printf "{\"known_failures\":[%s]}\n"
    (String.concat ","
       (List.map
          (fun (what, err) ->
            Printf.sprintf "{\"what\":%s,\"error\":%s}" (json_string what) (json_string err))
          known));
  let res = o.res in
  let _, pct, beyond = tail res.op_times in
  Printf.printf "ops: %d attempted, %d failed, failed_ratio=%g ratio; op_tail_s is p%.1f \
                 of %d ops (%d samples beyond)\n"
    res.attempted res.failed
    (float_of_int res.failed /. float_of_int (max 1 res.attempted))
    pct (List.length res.op_times) beyond;
  let metrics = if traced then per_layer o else end_to_end o in
  List.iter (fun (k, v, u) -> Printf.printf "%-28s %s %s\n" k (json_number v) u) metrics;
  if not traced then
    Printf.printf "%-28s %s s (%s)\n" "cache_fill_p50_s" (json_number o.fill_s) fill_note;
  if traced then begin
    let file = Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
    Span.to_json_file file (Span.all ());
    Printf.printf "spans written to %s\n" file
  end;
  let correct =
    res.failed = 0 && res.op_times <> []
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct res.attempted res.failed
    (String.concat ","
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string k) (json_number v)
              (json_string u))
          metrics))
