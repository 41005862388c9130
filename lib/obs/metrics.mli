(** Registry of named counters, gauges, and bounded histograms.

    Instruments are find-or-create by (name, labels), so call sites may
    register them at module initialisation (cheap repeated access from hot
    loops) or lazily. Recording is globally disabled by default; every
    mutator checks one boolean first, keeping disabled instrumentation
    free.

    Domain-safe: counter and gauge cells are [Atomic.t] (counter adds are
    CAS loops), histograms carry their own mutex, so recording from pool
    worker domains is race-free and counter totals are independent of the
    job count; the registry itself is mutex-guarded.

    Histograms are {e bounded}: a fixed-bucket count vector (the
    OpenMetrics exposition's [_bucket] series) plus a reservoir (Algorithm
    R over a deterministic per-histogram stream) capped at
    {!reservoir_capacity} samples for the percentile summaries. Memory is
    O(buckets + capacity) regardless of how many samples are observed;
    percentiles are exact while fewer than {!reservoir_capacity} samples
    were seen and a uniform-subsample estimate beyond that. Counts, sums,
    min/max, and bucket counts are always exact.

    Naming convention (see docs/ARCHITECTURE.md, "Observability"):
    dot-separated [subsystem.noun.detail], e.g. [solver.bb.nodes],
    [compile.alloc.greedy_fallback], [sim.cycles.compute]. The solver
    family splits by layer: [solver.lp.*] (revised-simplex driver:
    solves, wall_seconds, warm_starts, warm_rejects), [solver.simplex.*]
    (pivot engine: pivots, dual_pivots, bound_flips, bland_fallbacks,
    refactorizations), [solver.lp_dense.*] (the test-only dense oracle), and
    [solver.bb.*] (branch-and-bound: nodes, warm_hits, rc_tightened,
    lp_iteration_limits, ...). Counters named [*.wall_seconds] hold
    elapsed time and are excluded from cross-run determinism
    comparisons (see test/t_parallel.ml). Fleet telemetry adds
    [serving.*], [costmodel.drift.*] and [trace.dropped]. Labelled
    instruments ([?labels], e.g. per-chip or per-model) render as
    [name{k="v",...}] in every export. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered instrument. Registrations (and the instrument
    values held by call sites) stay valid; histogram reservoirs restart
    their deterministic sampling stream. *)

val counter : ?labels:(string * string) list -> string -> counter
val incr : ?by:float -> counter -> unit
val counter_value : counter -> float

val gauge : ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val reservoir_capacity : int
(** Samples a histogram reservoir retains (2048). Percentile summaries are
    exact up to this many observations, subsampled estimates beyond. *)

val default_buckets : float list
(** Geometric bucket ladder (1, 2.5, 5 per decade over 1e-6 .. 5e11),
    suitable for cycles and seconds alike. *)

val histogram :
  ?labels:(string * string) list -> ?buckets:float list -> string -> histogram
(** [buckets] are finite upper bounds (sorted and deduplicated
    internally; an overflow (+Inf) bucket is implicit); they default to
    {!default_buckets} and are fixed at first registration. Raises
    [Invalid_argument] when an explicit bucket list has no finite bound. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int

(** One histogram's bounded summary. [buckets] are (upper bound,
    cumulative count) pairs ending with the +infinity overflow bucket —
    exactly the OpenMetrics [_bucket] series. *)
type summary = {
  n : int;
  sum : float;
  mean : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
  buckets : (float * int) list;
}

val summarize : histogram -> summary

type value = Counter of float | Gauge of float | Histogram of summary

val dump : unit -> (string * (string * string) list * value) list
(** Every touched instrument as (name, labels, value), sorted by rendered
    name — the single source for all exporters ({!to_markdown},
    {!to_json}, {!Openmetrics.to_string}). Untouched instruments are
    omitted. *)

val to_markdown : unit -> string
(** All touched instruments as a Markdown table, sorted by name: counters
    and gauges with their value, histograms with
    count/mean/min/p50/p95/p99/p999/max. *)

val to_json : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name: {count,
    mean, min, p50, p95, p99, p999, max}}}], touched instruments only. *)
