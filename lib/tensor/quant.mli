(** Symmetric int8 quantisation: the paper evaluates every model with 8-bit
    weights and activations, and the CIM arrays compute on int8 operands with
    wide accumulation. *)

type qtensor = {
  values : Kernels.i8;  (** each in [-128, 127], one byte per value *)
  scale : float;       (** real = scale * value *)
  shape : Shape.t;
}

val quantize : Tensor.t -> qtensor
(** Symmetric per-tensor quantisation; scale = max|x| / 127 (scale 1.0 for an
    all-zero tensor). *)

val quantize_slice : float array -> off:int -> Shape.t -> qtensor
(** [quantize_slice data ~off shape] is {!quantize} of the [numel shape]
    elements of [data] from [off], read in place (no copy). Raises
    [Invalid_argument] when the slice does not fit in [data]. *)

val dequantize : qtensor -> Tensor.t

val clamp_i8 : int -> int
(** Saturate to [-128, 127]. *)

val requantize : int array -> Shape.t -> in_scale:float -> qtensor
(** Take wide accumulator values with an effective input scale and produce a
    fresh int8 tensor with a new per-tensor scale. Raises [Invalid_argument]
    when [in_scale] is not strictly positive (a zero scale would silently
    turn every accumulator into 0 through a NaN). *)

val matmul : qtensor -> qtensor -> qtensor
(** [matmul a b] for a:[m;k] b:[k;n] (2-d only), wide accumulation then
    requantisation — the arithmetic a CIM compute array performs, on the
    blocked {!Kernels.qmatmul2d}; exactly the naive loop's values because
    integer accumulation is exact. *)

val quant_error : Tensor.t -> float
(** Max |x - dequant(quant(x))| — used by property tests to bound the
    round-trip error to one quantisation step. *)
