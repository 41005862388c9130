(** CMSwitch compilation driver: the end-to-end pipeline of Fig. 7
    (graph -> operator extraction -> DP segmentation with per-segment MIP
    allocation -> placement -> meta-operator code generation).

    Since the nanopass redesign the driver is thin: the phases live in
    {!Passes} as first-class pass values and every entry point here folds
    {!Passes.run_pipeline} over a pass list ({!Passes.default_pipeline}
    unless overridden), projecting the final {!Passes.state} onto
    {!result}. Custom pipelines, per-pass validation and post-pass
    observation plug in through [?passes] / [?validate_each] / [?on_pass];
    the default pipeline is byte-identical to the historical hardwired
    driver.

    Compilation is configured through {!Config} — one flat record;
    [Config.canonical] is the basis of the compilation-cache keys, which
    is why the flattening matters: a cache key must cover {e every}
    semantic knob exactly once. *)

val log_src : Logs.src
(** The compiler's log source ("cmswitch"): enable [Debug] to trace the
    pipeline's pass boundaries (see also {!Passes.log_src}). *)

(** The unified compiler configuration: every semantic knob of the
    pipeline, flattened, plus the fault map and the compilation cache.
    Build with the [with_*] combinators:
    {[Config.default |> Config.with_jobs 4
                     |> Config.with_milp_max_nodes 1000]} *)
module Config : sig
  type t = {
    partition_fraction : float;
        (** sub-operator cap, fraction of the chip (Opinfo.extract) *)
    max_segment_ops : int;        (** DP window cap (Segment) *)
    memoize : bool;               (** memoise window MIPs by signature *)
    jobs : int;
        (** concurrent MILP solvers per DP frontier; output is
            byte-identical for every value, so [jobs] is {e excluded} from
            {!canonical} *)
    milp_max_nodes : int;         (** branch-and-bound node budget (Alloc) *)
    refine : bool;                (** lexicographic array-count refinement *)
    force_all_compute : bool;     (** CIM-MLC restriction *)
    buckets : Bucket.t option;
        (** length-bucketing policy for {!compile_model} /
            {!session_step}: sequence workloads compile at their
            {!Bucket.ceiling} instead of the raw length. Semantic (the
            compiled graph changes), so it {e is} part of {!canonical}. *)
    faults : Cim_arch.Faultmap.t option;
        (** plan around these faults *)
    cache : Cim_cache.Store.t option;
        (** two-tier compilation cache; [None] compiles from scratch *)
  }

  val default : t
  (** partition_fraction 0.5, window 10, memoisation on, MILP node budget
      600 with refinement, dual-mode search, no buckets, no faults, no
      cache. [jobs] defaults to {!Cim_util.Pool.default_jobs}. *)

  val with_partition_fraction : float -> t -> t
  val with_max_segment_ops : int -> t -> t
  val with_memoize : bool -> t -> t
  val with_jobs : int -> t -> t
  val with_milp_max_nodes : int -> t -> t
  val with_refine : bool -> t -> t
  val with_force_all_compute : bool -> t -> t
  val with_buckets : Bucket.t option -> t -> t
  val with_faults : Cim_arch.Faultmap.t option -> t -> t
  val with_cache : Cim_cache.Store.t option -> t -> t
  val with_cache_dir : string -> t -> t
  (** [with_cache (Some (Cim_cache.Store.open_dir dir))]. *)

  val to_segment_options : t -> Segment.options
  (** Slot the flat record into the engine's internal options shape. *)

  val to_alloc_options : t -> Alloc.options

  val canonical : t -> string
  (** Deterministic single-line serialisation of every {e semantic} field
      — the compilation-cache key component. Floats are rendered as exact
      binary64 hex ([%h]), booleans and enums as fixed tokens, fields in
      fixed order, so the string is byte-stable across runs, processes and
      platforms. [jobs] (execution strategy under the byte-identical
      determinism contract), [faults] (keyed separately, see
      {!Ccache.prog_key}) and [cache] (plumbing) are excluded. *)

  val of_canonical : string -> (t, string) result
  (** Strict inverse of {!canonical} over the included fields; excluded
      fields come back at their defaults. [canonical] ∘ [of_canonical] ∘
      [canonical] is the identity (the round-trip fixed point the cache
      keys rely on). *)
end

type result = {
  chip : Cim_arch.Chip.t;
  graph : Cim_nnir.Graph.t;
  ops : Opinfo.t array;
  schedule : Plan.schedule;
  places : Placement.seg_place list;
  program : Cim_metaop.Flow.program;
  dp_stats : Segment.stats;
  degradation : Degrade.report;
      (** which solve stages fired per segment, the usable-array pool the
          plan was made against, and the static flow-validator findings —
          empty events/diagnostics on a clean full-capacity compile *)
  compile_seconds : float;      (** wall-clock compilation time (Fig. 18) *)
}

val compile :
  ?config:Config.t -> ?faults:Cim_arch.Faultmap.t ->
  ?shape:string -> ?frontiers:Segment.frontier_state ->
  ?frontier_tag:string -> ?passes:Passes.pass list -> ?validate_each:bool ->
  ?on_pass:(Passes.pass -> Passes.state -> unit) ->
  Cim_arch.Chip.t -> Cim_nnir.Graph.t -> result
(** Run the pass pipeline over the graph. An explicit [faults] always
    overrides [config.faults]. With faults, the solver plans against
    {!Cim_arch.Faultmap.effective_chip} (only freely-assignable arrays
    count as capacity) while placement runs on the real chip with dead
    arrays masked and stuck arrays pinned to their mode; the emitted
    program is re-checked by the {!Cim_metaop.Check} flow validator and
    any findings land in [degradation.diagnostics].

    [passes] (default {!Passes.default_pipeline}) selects the pipeline; it
    must produce the artifacts {!result} projects (a pipeline without
    codegen fails with the missing pass named). [validate_each] runs every
    pass's validator ({!Passes.Pass_error} names the failing pass);
    [on_pass] observes the state after each pass (the CLI's
    [--dump-after]).

    With [config.cache], the whole compilation is first looked up in the
    program tier (key: canonical graph text, chip, fault map,
    [Config.canonical], and the {!Passes.fingerprint} of [passes]); a hit
    replays the cached segmentation through the live placement/codegen
    passes and re-validates the program with {!Cim_metaop.Check}, so a
    stale or corrupted entry degrades to a miss — never a wrong program.
    On a miss the per-segment tier still memoises window MIP solutions
    across runs, and a clean result is stored back. Cache hits preserve
    the byte-identical determinism contract at any job count.

    Raises [Failure]/[Opinfo.Unsupported] on graphs the (remaining) chip
    cannot run — use {!compile_robust} for a non-raising pipeline.

    [shape] is an opaque versioned fragment mixed into the program-tier key
    (see {!Ccache.prog_key}); {!compile_model} derives it from the bucket
    policy. [frontiers] enables incremental DP-prefix reuse across
    successive compiles (see {!Segment.run}); [frontier_tag] namespaces the
    lineages when several distinct graphs share one state. Neither affects
    the emitted program — only compile time. *)

val compile_robust :
  ?config:Config.t -> ?faults:Cim_arch.Faultmap.t ->
  Cim_arch.Chip.t -> Cim_nnir.Graph.t -> (result, Degrade.report) Stdlib.result
(** Never raises: on pipeline failure it retries with
    {!Passes.serial_pipeline} — serial single-operator segments under
    greedy allocation (every segment recorded as a [Serial_fallback]
    event); when even that cannot fit an operator, returns [Error report]
    whose diagnostics say what failed at each stage. The serial fallback
    is never cached. *)

(** What an online recompile produced, and how hard it had to degrade. *)
type recompile_outcome = {
  rc_result : result;
  rc_level : int;
      (** ladder level that produced the plan: 0 = the given config,
          1 = node budget clamped to 32, 2 = near-greedy (node budget 1,
          no refinement), 3 = serial single-operator segments *)
  rc_attempts : int;   (** ladder levels actually tried *)
  rc_seconds : float;  (** total wall-clock across all attempts *)
}

val recompile :
  ?config:Config.t -> ?budget_seconds:float -> ?start_level:int ->
  Cim_arch.Chip.t -> Cim_nnir.Graph.t ->
  (recompile_outcome, Degrade.report) Stdlib.result
(** The reusable recompile-around-faults entry point for runtime serving:
    compile under [config] (put the current fault map in [config.faults]),
    descending a fixed degradation ladder until some level yields a plan.
    Each level is an ordinary {!compile}, so a warm compilation cache makes
    repeated recompiles of previously-seen fault maps near-free; duplicate
    ladder configs are skipped. With [budget_seconds], a spent wall-clock
    budget jumps straight to the cheapest (serial) level rather than giving
    up — the caller needs {e a} plan now, not the best one. Note that a
    wall-clock budget can make the {e chosen level} timing-dependent; leave
    it [None] (the default) where the byte-identical determinism contract
    matters, e.g. under {!Cim_sim.Fleet}'s plan prefetch. [start_level]
    (default 0) skips the expensive levels up front. [Error report] only
    when even serial compilation cannot fit the graph on the remaining
    arrays. Emits [compile.recompile.total] / [compile.recompile.level<N>]
    counters on success. *)

val memory_mode_ratio : result -> float
(** Average over segments of (memory-mode arrays / chip arrays) — the
    metric of Fig. 16's last row. *)

(** End-to-end model cost with block reuse: transformer benchmarks compile
    one block and replicate it [n_layers] times (plus the LM head), as the
    paper does; CNNs compile whole. *)
type model_cost = {
  model : string;
  workload : Cim_models.Workload.t;  (** the workload as requested *)
  padded_workload : Cim_models.Workload.t;
      (** the workload actually compiled — the bucket-ceiling rebuild when a
          policy is active, [workload] itself otherwise. [total_cycles] and
          every [result] price this shape: the padded program is what
          executes, so the padding cost is in the Eq. 10 numbers, never
          hidden *)
  bucket_ceiling : int option;
      (** context length compiled at, when a bucket policy applied *)
  layer : result option;        (** the reused block, when block reuse applies *)
  whole : result option;        (** whole-graph compilation (CNNs) *)
  head : result option;         (** LM head (decoder/encoder output projection) *)
  total_cycles : float;
  mem_ratio : float;
  compile_seconds : float;
}

val compile_model :
  ?config:Config.t -> ?faults:Cim_arch.Faultmap.t ->
  ?frontiers:Segment.frontier_state -> ?passes:Passes.pass list ->
  ?validate_each:bool -> ?on_pass:(Passes.pass -> Passes.state -> unit) ->
  Cim_arch.Chip.t -> Cim_models.Zoo.entry -> Cim_models.Workload.t -> model_cost
(** [passes] / [validate_each] / [on_pass] are forwarded to every
    underlying {!compile} (the block, the whole network and the LM head
    alike). With [config.buckets], sequence workloads (never CNNs) are rebuilt at
    their bucket ceiling before compilation: the cache keys carry a
    [shape.v1] fragment derived from the bucket (so every length inside a
    bucket shares the same program- and seg-tier entries), and a
    {!Cim_nnir.Shape_infer.dominates} check asserts the padded graph covers
    the actual shapes whenever padding occurred. *)

(** {2 Compilation sessions — the dynamic-shape decode fast path}

    A [session] pins (config, chip, model) and carries the two stores that
    make a decode sweep cheap: an in-session memo of compiled bucket
    ceilings (same ceiling twice = free) and a {!Segment.frontier_state}
    (crossing into a new bucket re-solves only the DP suffix whose
    operators changed). With [config.cache] also set, warm sweeps re-solve
    zero MILPs across process restarts. *)

type session

type step = {
  step_cost : model_cost;
  step_ceiling : int;        (** context length this step compiled at *)
  step_recompiled : bool;    (** [false] = in-session memo hit (no work) *)
  step_prefix_reused : int;  (** DP ops seeded from the frontier this step *)
  step_seconds : float;      (** wall clock of this step *)
}

val session : ?config:Config.t -> Cim_arch.Chip.t -> Cim_models.Zoo.entry -> session

val session_step : session -> Cim_models.Workload.t -> step
(** Price one decode/prefill step. The program underlying [step_cost] is
    byte-identical to what a cold {!compile_model} of the same (padded)
    workload would emit — memo, cache and frontier reuse change wall-clock
    only. *)

val head_graph :
  Cim_models.Zoo.entry -> Cim_models.Workload.t -> Cim_nnir.Graph.t option
(** The LM-head projection graph compiled alongside the reused block;
    [None] for CNNs. Shared with the baseline compilers so every compiler
    prices the same end-to-end network. *)
