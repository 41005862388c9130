(** The kernel engine behind {!Ops} and {!Quant}: the hot tensor kernels —
    2-d matrix multiply (float and int8), im2col and the element-wise
    quantisation passes — as cache-blocked loops with unsafe accesses.

    Quantised values live in {!i8} Bigarrays, one byte per value, from the
    quantisation pass through the int8 matmul to requantisation; no
    [int array] of operand size is ever built. The int8 matmul picks one
    of two exact routes by the number of output rows: few-row
    (decode-shaped) calls stream both int8 operands directly and
    accumulate in native OCaml ints — wider than the int32 a real CIM
    periphery carries, deliberately, so the result is {e exactly} the
    naive loop's for any reduction depth; calls with eight or more rows
    widen both operands once to float64 and run the float pipeline, which
    is exact for int8 products at any feasible depth. The float64 path
    runs the same cache-blocked unsafe loops directly over the unboxed
    OCaml float arrays (already flat binary64 storage — a copy into a
    Bigarray would only add O(mk + kn) traffic for zero layout gain).

    Identity contract: for every kernel and every input, the result is
    {e bitwise identical} to the naive seed loop (safe accesses, ascending
    reduction order), which survives only as the test oracle
    ([test/oracle/oracle.ml]). Integer arithmetic is exact, so blocking is
    free; the float kernels preserve the oracle's per-element accumulation
    order (ascending [p] for each [(i, j)], same zero skip), so blocking
    only reorders {e independent} dot products. [test/t_kernels.ml]'s
    differential suite enforces the contract.

    Row parallelism: when a {!Cim_util.Pool} has been installed with
    {!set_pool}/{!with_pool} and the call site is the pool's submitting
    domain (never from inside a worker — {!Cim_util.Pool.current_worker}),
    large kernels split their output rows into one contiguous chunk per
    worker. Chunks write disjoint rows, every element is computed by
    exactly one task with the serial per-element order, so results stay
    bitwise identical at any job count. *)

val set_pool : Cim_util.Pool.t option -> unit
(** Install (or remove) the worker pool used for row-parallel kernels.
    Only the pool's submitting domain uses it; kernels called from inside
    any pool worker run serial. *)

val with_pool : Cim_util.Pool.t option -> (unit -> 'a) -> 'a
(** Scoped {!set_pool}, restoring the previous pool on exit. *)

val clamp_i8 : int -> int
(** Saturate to [-128, 127] (shared with {!Quant.clamp_i8}). *)

val matmul2d :
  float array -> int -> float array -> int -> m:int -> k:int -> n:int ->
  float array
(** [matmul2d a aoff b boff ~m ~k ~n] multiplies the [m*k] row-major block
    of [a] starting at [aoff] by the [k*n] block of [b] at [boff] into a
    fresh [m*n] array — bitwise identical to the naive oracle loop. The
    offsets are how the batched {!Ops.matmul} cases index slices without
    per-batch copies. *)

type i8 = (int, Bigarray.int8_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Int8 values, one byte each. Spelled out in full so that every access
    in a kernel compiles to an inline load. *)

val qmatmul2d : i8 -> i8 -> m:int -> k:int -> n:int -> int array
(** Int8 matmul with wide accumulation over the [m*k] and [k*n] row-major
    int8 operands (as {!Quant.qtensor}). Returns the raw [m*n]
    accumulator array (feed it to {!Quant.requantize}); exactly equal to
    the naive oracle's accumulators, by two routes. Wide calls (m >= 8)
    widen both operands to float64 once and run the float pipeline —
    every product is within ±2^14 and every accumulator within
    2^14 * k < 2^53, so float arithmetic computes the integer dot
    products exactly while beating tagged-int arithmetic ~2x; it skips
    zero left-operand values like the oracle, which is exact because an
    integer-valued sum never becomes -0. Narrow (decode-shaped) calls,
    where widening the [k*n] operand would dominate, stream both int8
    operands as they are with native-int accumulators. *)

val im2col :
  float array -> int -> c:int -> h:int -> w:int -> kh:int -> kw:int ->
  stride:int -> pad:int -> oh:int -> ow:int -> dst:float array ->
  dst_row0:int -> unit
(** [im2col src soff ...] unrolls one NCHW image (the [c*h*w] floats of
    [src] starting at [soff]) into patch rows
    [dst_row0 .. dst_row0 + oh*ow) of [dst] (row width [c*kh*kw]),
    zero-padding out-of-bounds taps, with unsafe accesses and contiguous
    inner-row copies. *)

val max_abs : float array -> off:int -> len:int -> float
(** Max absolute value of the [len] elements from [off], 0 when [len = 0]
    and nan when any of them is nan (chunk-parallel; max is
    order-independent, so exact). *)

val quantize_values : float array -> off:int -> len:int -> scale:float -> i8
(** Element-wise [clamp_i8 (int_of_float (Float.round (x /. scale)))] over
    the [len] elements from [off], chunk-parallel. *)

val max_abs_int : int array -> int

val requantize_values : int array -> in_scale:float -> scale:float -> i8
(** Element-wise
    [clamp_i8 (int_of_float (Float.round (float v *. in_scale /. scale)))],
    chunk-parallel. *)
