(** The naive seed kernels, kept as the differential oracle for
    {!Cim_tensor.Kernels}: safe accesses, textbook loop order. The runtime
    {!Cim_tensor.Ops} and {!Cim_tensor.Quant} must reproduce every result
    here bit for bit (identical float bits, exactly equal int8 values and
    scales). Test-only: nothing under [lib/] links this library. *)

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
