(** Functional simulator: executes a meta-operator flow against the source
    graph, modelling the int8 arithmetic the CIM arrays actually perform,
    and diffs the results against the float reference executor — the role
    the CIM-MLC functional simulator + PyTorch comparison plays in §5.1.

    Checks enforced while executing:
    - every [CIM.compute] runs on compute-mode arrays programmed with that
      operator's weights, and its memory operands sit in memory-mode arrays;
    - mode switches are never redundant;
    - the output slices of an operator's sub-operators cover its full output
      (nothing silently missing from a partitioned matmul). *)

type report = {
  outputs : (string * Cim_tensor.Tensor.t) list;   (** simulated, int8 path *)
  reference : (string * Cim_tensor.Tensor.t) list; (** float reference *)
  max_abs_err : float;
  max_rel_err : float;  (** relative to the reference tensor's max |value| *)
  compute_instrs : int;
  vector_instrs : int;
  switches : int * int; (** realised (m->c, c->m) *)
  switch_retries : int; (** failed switch attempts recovered by retrying *)
}

exception Error of string

val run :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> ?jobs:int ->
  Cim_nnir.Graph.t -> Cim_metaop.Flow.program ->
  inputs:(string * Cim_tensor.Tensor.t) list -> report
(** Requires every initializer of the graph to carry values. Raises [Error]
    (or {!Machine.Fault}) on illegal programs — including programs that use
    dead arrays, switch stuck arrays, or exhaust the transient-switch retry
    budget of the fault model (see {!Machine.create}).

    [jobs] (default {!Cim_util.Pool.default_jobs}, forced to 1 when already
    inside a pool worker) sizes the work pool the simulator runs on; each
    [Parallel] block's independent CIM nodes are pre-evaluated concurrently
    and the row-parallel {!Cim_tensor.Kernels} split large matmuls across
    the same pool. Under the determinism contract the report — outputs,
    errors, instruction counts, switch stats — is byte-identical at any
    [jobs]; {!digest} is the cheap way to assert that. *)

val run_isa :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> ?jobs:int ->
  Cim_nnir.Graph.t -> Cim_metaop.Isa.image ->
  inputs:(string * Cim_tensor.Tensor.t) list -> report
(** The stream entry: {!run} over a lowered MMIO command stream. The stream
    is raised back with {!Cim_metaop.Isa.to_flow} — a 1:1 flattening, so
    this is exactly [run] on the program the stream was lowered from — and
    unbalanced or miscounted bracket markers raise [Error "invalid command
    stream: ..."], never [Invalid_argument]. There is no second
    command-stream interpreter: the tree walk is the one simulator. *)

val digest : report -> string
(** MD5 hex digest over the simulated output tensors (names + IEEE-754 bit
    patterns, so any numeric divergence changes it) and the instruction /
    switch counters. Golden-fixture material: equal digests mean the run
    was byte-identical. *)
