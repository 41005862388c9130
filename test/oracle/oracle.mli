(** Reference implementations the tests check the runtime against.
    Test-only: nothing under [lib/] links this library.

    - The naive seed kernels, the differential oracle for
      {!Cim_tensor.Kernels}: safe accesses, textbook loop order. The
      runtime {!Cim_tensor.Ops} and {!Cim_tensor.Quant} must reproduce
      every result here bit for bit (identical float bits, exactly equal
      int8 values and scales).
    - The dense tableau simplex ({!Lp_dense}) and a plain branch and bound
      over it ({!milp}), the references for {!Cim_solver.Lp} and
      {!Cim_solver.Milp}.
    - The single-chip FCFS serving loop ({!fcfs}), the reference for a
      one-chip {!Cim_sim.Fleet.run}. *)

open Cim_tensor

val matmul : Tensor.t -> Tensor.t -> Tensor.t
(** {!Ops.matmul}'s three layouts ([m;k]x[k;n], [b;m;k]x[k;n],
    [b;m;k]x[b;k;n]): ascending-[p] accumulation per output element,
    skipping zero left-operand values. *)

val im2col : Tensor.t -> kh:int -> kw:int -> stride:int -> pad:int -> Tensor.t

val conv2d :
  Tensor.t -> weight:Tensor.t -> bias:Tensor.t option -> stride:int ->
  pad:int -> groups:int -> Tensor.t
(** Direct convolution in the im2col + matmul accumulation order: for each
    output element, taps in ascending [(ci, ky, kx)] order, zero (and
    padding) inputs skipped, bias added last — so it must equal
    {!Ops.conv2d} bitwise without sharing any of its lowering. *)

type qtensor = { values : int array; scale : float; shape : Shape.t }
(** The boxed int8 tensor of the seed: one OCaml [int] per value, where
    {!Quant.qtensor} stores one byte. *)

val box : Quant.qtensor -> qtensor
(** Copy a runtime tensor's values into an [int array]. *)

val qtensor_equal : qtensor -> Quant.qtensor -> bool
(** Bitwise: equal length, every value equal element by element, the
    scales' bits equal, and equal shapes. *)

val quantize : Tensor.t -> qtensor
val requantize : int array -> Shape.t -> in_scale:float -> qtensor

val qmatmul2d_boxed : int array -> int array -> m:int -> k:int -> n:int -> int array
(** Wide native-int accumulators, ascending-[p] order. *)

val qmatmul : qtensor -> qtensor -> qtensor
(** {!Quant.matmul} over {!qmatmul2d_boxed} and {!requantize}. *)

(** {2 List-index data movement}

    The seed bodies of {!Ops}' data-movement operators, {!Tensor.rand} and
    the [Embedding] case of {!Cim_nnir.Exec.eval_node}: every output
    element is built by {!Tensor.init} from its [int list] index. The
    runtime versions walk flat offsets instead and must reproduce these bit
    for bit. *)

val add : Tensor.t -> Tensor.t -> Tensor.t
val mul : Tensor.t -> Tensor.t -> Tensor.t
val transpose2d : Tensor.t -> Tensor.t
val permute : Tensor.t -> int list -> Tensor.t
val concat : Tensor.t -> Tensor.t -> axis:int -> Tensor.t
val maxpool2d : Tensor.t -> k:int -> stride:int -> pad:int -> Tensor.t
val avgpool2d : Tensor.t -> k:int -> stride:int -> pad:int -> Tensor.t
val avgpool_global : Tensor.t -> Tensor.t

val attention : q:Tensor.t -> k:Tensor.t -> v:Tensor.t -> causal:bool -> Tensor.t
(** {!Ops.attention} with the list-index transpose and causal mask. *)

val embedding : Tensor.t -> Tensor.t -> Tensor.t
(** ids (any shape) x [[vocab; d]] -> ids shape @ [[d]]. *)

val rand : Cim_util.Rng.t -> Shape.t -> lo:float -> hi:float -> Tensor.t

(** {2 Solver references} *)

module Lp_dense = Lp_dense

val milp :
  ?eps:float -> ?max_nodes:int -> Cim_solver.Lp.problem ->
  kinds:Cim_solver.Milp.kind array -> Cim_solver.Milp.result
(** Cold depth-first branch and bound: every node solved from scratch by
    {!Lp_dense}, branching on the first integer variable whose value is
    more than [eps] (default 1e-6) from an integer, down branch first. A
    node is pruned only when its relaxation does not beat the incumbent by
    more than 1e-9 — no rounding heuristic, warm start, bound skip or
    reduced-cost tightening, so it checks {!Cim_solver.Milp.solve} at
    [~gap:0.] with none of its shortcuts. [max_nodes] (default 100_000)
    truncates to [Node_limit]. Maximisation. *)

(** {2 Serving reference} *)

type fcfs_stats = {
  completed : int;
  dropped : int;               (** requests rejected by deadline admission *)
  makespan : float;            (** cycles until the last request finishes *)
  mean_latency : float;        (** request arrival -> completion, cycles *)
  p95_latency : float;         (** nearest-rank *)
  p99_latency : float;
  mean_ttft : float;           (** time to first token, cycles *)
  p50_tpt : float;             (** nearest-rank time-per-token over every
                                   decode step of every admitted request *)
  p95_tpt : float;
  p99_tpt : float;
  tokens : int;
  tokens_per_megacycle : float;
}
(** Every statistic is 0 over an empty set of admitted requests. *)

val fcfs :
  ?deadline:float -> Cim_sim.Serving.cost_profile ->
  Cim_sim.Serving.request list -> fcfs_stats
(** One healthy chip, FCFS in arrival order, no batching: each request
    runs prefill then its decode steps with a growing KV length, each step
    added to the clock in turn. With a [deadline] (cycles, must be
    positive), a request whose predicted completion would exceed
    arrival + deadline is dropped on arrival and does not occupy the chip.
    Raises [Invalid_argument] on a malformed request (non-positive prompt
    or negative output). *)
