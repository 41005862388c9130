(* Differential tests for the Bigarray kernel engine: the boxed seed loops
   in the test-only Cim_oracle are the oracle, and the runtime Ops/Quant
   must reproduce them bit for bit — exact integer equality on the
   quantized path, identical float bits on the float path (the determinism
   contract in kernels.mli). Also covers the batched-matmul offset
   indexing, the quantisation rounding/clamp edges, and the functional
   simulator's byte-identity across job counts (in-process and against a
   golden fixture; refresh with CMSWITCH_UPDATE_GOLDEN=1 dune runtest). *)

module Kernels = Cim_tensor.Kernels
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Ops = Cim_tensor.Ops
module Quant = Cim_tensor.Quant
module Oracle = Cim_oracle.Oracle
module Rng = Cim_util.Rng
module Functional = Cim_sim.Functional
module Cmswitch = Cim_compiler.Cmswitch

let chip = Cim_arch.Config.dynaplasia

(* ---- generators ---------------------------------------------------------- *)

(* Shape dims are >= 1 (Shape rejects zero dims); 1 is the degenerate
   extreme. Values mix smooth, exact-integer and zero entries so the
   zero-skip branch and both int8 code paths (narrow m < 8 and wide) get
   exercised. *)
let gen_values n =
  let open QCheck.Gen in
  let* style = int_range 0 2 in
  let gen_one =
    match style with
    | 0 -> float_range (-2.) 2.
    | 1 -> map float_of_int (int_range (-3) 3)
    | _ ->
      let* z = int_range 0 2 in
      if z = 0 then return 0. else float_range (-1.) 1.
  in
  let rec go acc i = if i = 0 then return acc else
      let* x = gen_one in
      go (x :: acc) (i - 1)
  in
  map Array.of_list (go [] n)

type mm_case = {
  batch : int option * bool;  (* batch dim, right operand batched too *)
  m : int; k : int; n : int;
  av : float array; bv : float array;
}

let gen_mm =
  let open QCheck.Gen in
  let* m = int_range 1 12 in
  let* k = int_range 1 20 in
  let* n = int_range 1 20 in
  let* kind = int_range 0 2 in
  let* bd = int_range 1 3 in
  let batch = if kind = 0 then (None, false) else (Some bd, kind = 2) in
  let asize = match batch with None, _ -> m * k | Some b, _ -> b * m * k in
  let bsize = match batch with _, true -> bd * k * n | _ -> k * n in
  let* av = gen_values asize in
  let* bv = gen_values bsize in
  return { batch; m; k; n; av; bv }

let print_mm c =
  let b = match c.batch with None, _ -> "2d" | Some b, r -> Printf.sprintf "b=%d%s" b (if r then " both" else "") in
  Printf.sprintf "%s m=%d k=%d n=%d" b c.m c.k c.n

let tensors_of c =
  let ash, bsh =
    match c.batch with
    | None, _ -> ([ c.m; c.k ], [ c.k; c.n ])
    | Some b, false -> ([ b; c.m; c.k ], [ c.k; c.n ])
    | Some b, true -> ([ b; c.m; c.k ], [ b; c.k; c.n ])
  in
  ( Tensor.create (Shape.of_list ash) c.av,
    Tensor.create (Shape.of_list bsh) c.bv )

let float_bits_equal x y =
  Array.length x = Array.length y
  && (let ok = ref true in
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float (Array.unsafe_get y i)
          then ok := false)
        x;
      !ok)

let i8_of_array = Bigarray.(Array1.of_array int8_signed c_layout)

let unbox (o : Oracle.qtensor) =
  { Quant.values = i8_of_array o.values; scale = o.scale; shape = o.shape }

(* ---- float matmul -------------------------------------------------------- *)

let matmul_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"matmul: Bigarray bitwise-equals boxed oracle"
       ~count:120
       (QCheck.make ~print:print_mm gen_mm)
       (fun c ->
         let a, b = tensors_of c in
         if not (float_bits_equal (Tensor.data (Oracle.matmul a b))
                   (Tensor.data (Ops.matmul a b)))
         then QCheck.Test.fail_reportf "float bits diverge on %s" (print_mm c);
         (* the quantisation pass over the same mixed-style values *)
         if not (Oracle.qtensor_equal (Oracle.quantize a) (Quant.quantize a)) then
           QCheck.Test.fail_reportf "quantize diverges on %s" (print_mm c);
         true))

(* ---- int8 matmul --------------------------------------------------------- *)

type qmm_case = { qm : int; qk : int; qn : int; qa : int array; qb : int array }

let gen_qvalues n =
  let open QCheck.Gen in
  (* full int8 range incl. the saturation boundaries -128 and 127 *)
  let* style = int_range 0 1 in
  let one = if style = 0 then int_range (-128) 127 else oneofl [ -128; -127; -1; 0; 1; 127 ] in
  let rec go acc i = if i = 0 then return acc else
      let* x = one in go (x :: acc) (i - 1)
  in
  map Array.of_list (go [] n)

let gen_qmm =
  let open QCheck.Gen in
  (* m from 1 (narrow int8-Bigarray route) past 8 (float64 route) *)
  let* qm = int_range 1 16 in
  let* qk = int_range 1 24 in
  let* qn = int_range 1 24 in
  let* qa = gen_qvalues (qm * qk) in
  let* qb = gen_qvalues (qk * qn) in
  return { qm; qk; qn; qa; qb }

let print_qmm c = Printf.sprintf "m=%d k=%d n=%d" c.qm c.qk c.qn

let qmatmul_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"qmatmul: Bigarray accumulators exactly equal oracle"
       ~count:120
       (QCheck.make ~print:print_qmm gen_qmm)
       (fun c ->
         let expect = Oracle.qmatmul2d_boxed c.qa c.qb ~m:c.qm ~k:c.qk ~n:c.qn in
         let got =
           Kernels.qmatmul2d (i8_of_array c.qa) (i8_of_array c.qb) ~m:c.qm ~k:c.qk ~n:c.qn
         in
         if got <> expect then
           QCheck.Test.fail_reportf "accumulators diverge on %s" (print_qmm c);
         (* and through Quant.matmul, requantisation included *)
         let mk v m n =
           { Oracle.values = v; scale = 0.05; shape = Shape.of_list [ m; n ] }
         in
         let qa = mk c.qa c.qm c.qk and qb = mk c.qb c.qk c.qn in
         Oracle.qtensor_equal (Oracle.qmatmul qa qb) (Quant.matmul (unbox qa) (unbox qb))))

(* ---- conv2d / im2col ----------------------------------------------------- *)

type conv_case = {
  cn : int; cc : int; ch : int; cw : int;
  coc : int; ckh : int; ckw : int;
  stride : int; pad : int; groups : int;
  cx : float array; cwt : float array; cb : float array option;
}

let gen_conv =
  let open QCheck.Gen in
  let* groups = oneofl [ 1; 1; 2 ] in
  let* cpg = int_range 1 3 in
  let* opg = int_range 1 3 in
  let cc = cpg * groups and coc = opg * groups in
  let* cn = int_range 1 2 in
  let* ckh = int_range 1 3 in
  let* ckw = int_range 1 3 in
  let* stride = int_range 1 3 in
  let* pad = int_range 0 2 in
  (* keep the output at least 1x1: h + 2p >= kh *)
  let* ch = int_range (max 1 (ckh - (2 * pad))) 7 in
  let* cw = int_range (max 1 (ckw - (2 * pad))) 7 in
  let* cx = gen_values (cn * cc * ch * cw) in
  let* cwt = gen_values (coc * cpg * ckh * ckw) in
  let* with_bias = bool in
  let* cb = if with_bias then map Option.some (gen_values coc) else return None in
  return { cn; cc; ch; cw; coc; ckh; ckw; stride; pad; groups; cx; cwt; cb }

let print_conv c =
  Printf.sprintf "n=%d c=%d h=%d w=%d oc=%d k=%dx%d s=%d p=%d g=%d bias=%b"
    c.cn c.cc c.ch c.cw c.coc c.ckh c.ckw c.stride c.pad c.groups
    (c.cb <> None)

let conv_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"conv2d: Bigarray bitwise-equals boxed oracle"
       ~count:60
       (QCheck.make ~print:print_conv gen_conv)
       (fun c ->
         let x = Tensor.create (Shape.of_list [ c.cn; c.cc; c.ch; c.cw ]) c.cx in
         let w =
           Tensor.create
             (Shape.of_list [ c.coc; c.cc / c.groups; c.ckh; c.ckw ])
             c.cwt
         in
         let bias = Option.map (fun b -> Tensor.create (Shape.of_list [ c.coc ]) b) c.cb in
         let expect =
           Oracle.conv2d x ~weight:w ~bias ~stride:c.stride ~pad:c.pad
             ~groups:c.groups
         in
         let got =
           Ops.conv2d x ~weight:w ?bias ~stride:c.stride ~pad:c.pad
             ~groups:c.groups ()
         in
         if not (float_bits_equal (Tensor.data expect) (Tensor.data got)) then
           QCheck.Test.fail_reportf "conv bits diverge on %s" (print_conv c);
         true))

let im2col_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"im2col: Bigarray bitwise-equals boxed oracle"
       ~count:30
       (QCheck.make ~print:print_conv gen_conv)
       (fun c ->
         let x = Tensor.create (Shape.of_list [ c.cn; c.cc; c.ch; c.cw ]) c.cx in
         let run im2col = im2col x ~kh:c.ckh ~kw:c.ckw ~stride:c.stride ~pad:c.pad in
         float_bits_equal (Tensor.data (run Oracle.im2col)) (Tensor.data (run Ops.im2col))))

(* ---- flat-offset data movement vs the list-index oracle ------------------ *)

(* values for the data-movement ops: the mixed styles above plus the IEEE
   specials, so the max/+/* operand order shows in the result bits *)
let gen_specials n =
  let open QCheck.Gen in
  let one =
    frequency
      [ (6, float_range (-2.) 2.);
        (1, oneofl [ nan; neg_infinity; infinity; 0.; -0.; 1.; -1. ]) ]
  in
  map Array.of_list (list_repeat n one)

let gen_dims ~lo ~hi =
  QCheck.Gen.(int_range lo hi >>= fun r -> list_repeat r (int_range 1 4))

let tensor_of dims v = Tensor.create (Shape.of_list dims) v

let bits_equal a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && float_bits_equal (Tensor.data a) (Tensor.data b)

let dims_str d = Shape.to_string (Shape.of_list d)

(* an output shape, then two operands that each drop leading axes (rank
   padding, down to a scalar) and squash axes to 1 (broadcast on either
   side) *)
let gen_broadcast =
  let open QCheck.Gen in
  let* out = gen_dims ~lo:0 ~hi:4 in
  let operand =
    let* drop = int_range 0 (List.length out) in
    let kept = List.filteri (fun i _ -> i >= drop) out in
    let* squash = list_repeat (List.length kept) (int_range 0 2) in
    return (List.map2 (fun d s -> if s = 0 then 1 else d) kept squash)
  in
  let* da = operand in
  let* db = operand in
  let* va = gen_specials (Shape.numel da) in
  let* vb = gen_specials (Shape.numel db) in
  return (da, va, db, vb)

let broadcast_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"add/mul broadcast: flat strides bitwise-equal oracle"
       ~count:200
       (QCheck.make
          ~print:(fun (da, _, db, _) -> dims_str da ^ " op " ^ dims_str db)
          gen_broadcast)
       (fun (da, va, db, vb) ->
         let a = tensor_of da va and b = tensor_of db vb in
         List.for_all
           (fun (x, y) ->
             bits_equal (Oracle.add x y) (Ops.add x y)
             && bits_equal (Oracle.mul x y) (Ops.mul x y))
           [ (a, b); (b, a) ]))

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

let permute_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"permute: every axis order bitwise-equals oracle"
       ~count:60
       (QCheck.make ~print:(fun (d, _) -> dims_str d)
          QCheck.Gen.(
            gen_dims ~lo:2 ~hi:4 >>= fun d ->
            gen_specials (Shape.numel d) >|= fun v -> (d, v)))
       (fun (d, v) ->
         let t = tensor_of d v in
         (match d with
         | [ _; _ ] ->
           if not (bits_equal (Oracle.transpose2d t) (Ops.transpose2d t)) then
             QCheck.Test.fail_reportf "transpose2d diverges on %s" (dims_str d)
         | _ -> ());
         List.for_all
           (fun perm ->
             bits_equal (Oracle.permute t perm) (Ops.permute t perm)
             || QCheck.Test.fail_reportf "perm [%s] diverges on %s"
                  (String.concat ";" (List.map string_of_int perm))
                  (dims_str d))
           (permutations (List.init (List.length d) Fun.id))))

let concat_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"concat: every axis bitwise-equals oracle" ~count:60
       (QCheck.make ~print:(fun (d, _) -> dims_str d)
          QCheck.Gen.(
            gen_dims ~lo:1 ~hi:4 >>= fun d ->
            list_repeat (List.length d) (int_range 1 3) >|= fun extra -> (d, extra)))
       (fun (d, extra) ->
         let rng = Rng.create (Hashtbl.hash (d, extra)) in
         List.for_all
           (fun axis ->
             let db = List.mapi (fun i x -> if i = axis then List.nth extra i else x) d in
             let a = Tensor.rand rng (Shape.of_list d) ~lo:(-1.) ~hi:1. in
             let b = Tensor.rand rng (Shape.of_list db) ~lo:(-1.) ~hi:1. in
             bits_equal (Oracle.concat a b ~axis) (Ops.concat a b ~axis)
             && bits_equal (Oracle.concat b a ~axis) (Ops.concat b a ~axis))
           (List.init (List.length d) Fun.id)))

type pool_case = {
  pdims : int list;  (* n; c; h; w *)
  k : int; pstride : int; ppad : int;
  pv : float array;
}

(* pad up to k, so windows clip at the borders and can lie wholly in the
   padding (maxpool then yields -inf, avgpool 0) *)
let gen_pool =
  let open QCheck.Gen in
  let* k = int_range 1 3 in
  let* pstride = int_range 1 3 in
  let* ppad = int_range 0 k in
  let* n = int_range 1 2 in
  let* c = int_range 1 3 in
  let* h = int_range (max 1 (k - (2 * ppad))) 7 in
  let* w = int_range (max 1 (k - (2 * ppad))) 7 in
  let pdims = [ n; c; h; w ] in
  let* pv = gen_specials (Shape.numel pdims) in
  return { pdims; k; pstride; ppad; pv }

let print_pool c =
  Printf.sprintf "%s k=%d s=%d p=%d" (dims_str c.pdims) c.k c.pstride c.ppad

let pool_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"max/avg pools: index arithmetic bitwise-equals oracle"
       ~count:150
       (QCheck.make ~print:print_pool gen_pool)
       (fun c ->
         let t = tensor_of c.pdims c.pv in
         let k = c.k and stride = c.pstride and pad = c.ppad in
         bits_equal (Oracle.maxpool2d t ~k ~stride ~pad) (Ops.maxpool2d t ~k ~stride ~pad ())
         && bits_equal (Oracle.avgpool2d t ~k ~stride ~pad)
              (Ops.avgpool2d t ~k ~stride ~pad ())
         && bits_equal (Oracle.avgpool_global t) (Ops.avgpool_global t)))

let attention_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"attention: flat causal mask bitwise-equals oracle"
       ~count:40
       QCheck.(triple (int_range 1 5) (int_range 0 4) (int_range 1 6))
       (fun (m, extra, d) ->
         let l = m + extra in
         let rng = Rng.create ((m * 100) + (extra * 10) + d) in
         let mk rows = Tensor.rand rng (Shape.of_list [ rows; d ]) ~lo:(-1.) ~hi:1. in
         let q = mk m and k = mk l and v = mk l in
         List.for_all
           (fun causal ->
             bits_equal (Oracle.attention ~q ~k ~v ~causal) (Ops.attention ~q ~k ~v ~causal ()))
           [ false; true ]))

(* Exec's Embedding node against the oracle: ids of rank 1..3 *)
let embedding_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"embedding: row blits bitwise-equal oracle" ~count:40
       (QCheck.make ~print:(fun (ids, vocab, d) -> Printf.sprintf "ids %s vocab %d d %d" (dims_str ids) vocab d)
          QCheck.Gen.(triple (gen_dims ~lo:1 ~hi:3) (int_range 1 6) (int_range 1 5)))
       (fun (ids_dims, vocab, d) ->
         let module B = Cim_nnir.Builder in
         let rng = Rng.create (Hashtbl.hash (ids_dims, vocab, d)) in
         let ids_shape = Shape.of_list ids_dims in
         let ids =
           Tensor.create ids_shape
             (Array.init (Shape.numel ids_shape) (fun _ -> float_of_int (Rng.int rng vocab)))
         in
         let wshape = Shape.of_list [ vocab; d ] in
         let w = Tensor.rand rng wshape ~lo:(-1.) ~hi:1. in
         let b = B.create "embed" in
         let x = B.input b "ids" ids_shape in
         let table = B.weight ~value:w b "table" wshape in
         let g = B.finish b ~outputs:[ B.embedding b x table ] in
         match Cim_nnir.Exec.run_outputs g [ ("ids", ids) ] with
         | [ (_, got) ] -> bits_equal (Oracle.embedding ids w) got
         | _ -> false))

let test_rand_draw_order () =
  (* Tensor.rand is the row-major sequence of Rng.float draws, and leaves
     the generator where the oracle (and the explicit draws) leave it *)
  List.iter
    (fun dims ->
      let shape = Shape.of_list dims in
      let r1 = Rng.create 11 and r2 = Rng.create 11 and r3 = Rng.create 11 in
      let got = Tensor.rand r1 shape ~lo:(-0.5) ~hi:0.5 in
      let oracle = Oracle.rand r2 shape ~lo:(-0.5) ~hi:0.5 in
      let draws = Array.init (Shape.numel shape) (fun _ -> -0.5 +. Rng.float r3 (0.5 -. -0.5)) in
      let label = dims_str dims in
      Alcotest.(check bool) (label ^ ": = oracle") true (bits_equal oracle got);
      Alcotest.(check bool) (label ^ ": = explicit draws") true
        (float_bits_equal draws (Tensor.data got));
      Alcotest.(check int) (label ^ ": generator state") (Rng.int r2 1_000_000)
        (Rng.int r1 1_000_000))
    [ []; [ 1 ]; [ 7 ]; [ 3; 5 ]; [ 2; 3; 4; 5 ] ]

(* ---- batched matmul = looped 2-d (offset-indexing regression) ------------- *)

let test_batched_vs_looped () =
  let rng = Rng.create 5 in
  let bd = 3 and m = 5 and k = 7 and n = 4 in
  let a = Tensor.rand rng (Shape.of_list [ bd; m; k ]) ~lo:(-1.) ~hi:1. in
  let b = Tensor.rand rng (Shape.of_list [ k; n ]) ~lo:(-1.) ~hi:1. in
  let b3 = Tensor.rand rng (Shape.of_list [ bd; k; n ]) ~lo:(-1.) ~hi:1. in
  List.iter
    (fun (label, matmul) ->
      let slice t i rows cols =
        Tensor.create (Shape.of_list [ rows; cols ])
          (Array.sub (Tensor.data t) (i * rows * cols) (rows * cols))
      in
      let batched = matmul a b in
      let batched2 = matmul a b3 in
      for bi = 0 to bd - 1 do
        let looped = matmul (slice a bi m k) b in
        Alcotest.(check bool)
          (Printf.sprintf "%s: half-batched slice %d" label bi)
          true
          (float_bits_equal (Tensor.data looped)
             (Array.sub (Tensor.data batched) (bi * m * n) (m * n)));
        let looped2 = matmul (slice a bi m k) (slice b3 bi k n) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: fully-batched slice %d" label bi)
          true
          (float_bits_equal (Tensor.data looped2)
             (Array.sub (Tensor.data batched2) (bi * m * n) (m * n)))
      done)
    [ ("oracle", Oracle.matmul); ("runtime", Ops.matmul) ]

(* ---- quantisation edges --------------------------------------------------- *)

let quantizers =
  [ ("oracle", fun t -> (Oracle.quantize t).Oracle.values);
    ("runtime", fun t -> (Oracle.box (Quant.quantize t)).Oracle.values) ]

let test_quant_edges () =
  (* clamp saturates at the int8 boundaries *)
  Alcotest.(check int) "clamp 127" 127 (Kernels.clamp_i8 127);
  Alcotest.(check int) "clamp 128" 127 (Kernels.clamp_i8 128);
  Alcotest.(check int) "clamp -128" (-128) (Kernels.clamp_i8 (-128));
  Alcotest.(check int) "clamp -129" (-128) (Kernels.clamp_i8 (-129));
  (* symmetric quantisation maps +-max to +-127 exactly *)
  let t = Tensor.create (Shape.of_list [ 3 ]) [| 1.0; -1.0; 0.5 |] in
  List.iter
    (fun (label, quantize) ->
      Alcotest.(check (array int))
        (label ^ ": boundary values")
        [| 127; -127; 64 |] (quantize t))
    quantizers;
  (* rounding ties go away from zero (Float.round), identically in the
     oracle and the runtime: the trailing 127 pins scale = 1, so +-0.5 and
     +-2.5 are exact ties *)
  let ties =
    Tensor.create (Shape.of_list [ 7 ]) [| 0.5; -0.5; 2.5; -2.5; 1.49; -1.49; 127. |]
  in
  let expect = [| 1; -1; 3; -3; 1; -1; 127 |] in
  List.iter
    (fun (label, quantize) ->
      Alcotest.(check (array int))
        (label ^ ": ties away from zero")
        expect (quantize ties))
    quantizers;
  (* all-zero tensor quantises to scale 1, not NaN *)
  let z = Quant.quantize (Tensor.zeros (Shape.of_list [ 4 ])) in
  Alcotest.(check (float 0.)) "zero tensor scale" 1.0 z.Quant.scale;
  (* zero / negative in_scale must be rejected, not silently NaN *)
  List.iter
    (fun s ->
      match Quant.requantize [| 1; 2 |] (Shape.of_list [ 2 ]) ~in_scale:s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "requantize accepted in_scale=%g" s)
    [ 0.; -1. ];
  (* requantised accumulators saturate into [-128, 127], and the runtime
     requantisation (scale included) equals the oracle's *)
  let acc = [| 1000; -1000; 0; 337; -337; -1 |] in
  let shape = Shape.of_list [ 6 ] in
  let q = Quant.requantize acc shape ~in_scale:1. in
  Alcotest.(check (array int)) "requantize saturation bounds and rounding"
    [| 127; -127; 0; 43; -43; 0 |] (Oracle.box q).Oracle.values;
  Alcotest.(check bool) "requantize = oracle" true
    (Oracle.qtensor_equal (Oracle.requantize acc shape ~in_scale:1.) q);
  Alcotest.(check bool) "requantize all-zero = oracle" true
    (Oracle.qtensor_equal
       (Oracle.requantize [| 0; 0 |] (Shape.of_list [ 2 ]) ~in_scale:0.5)
       (Quant.requantize [| 0; 0 |] (Shape.of_list [ 2 ]) ~in_scale:0.5))

(* Runs [f] with a two-job pool installed, so inputs of at least
   [2^17] elements take the chunk-parallel quantisation route. *)
let with_kernel_pool f =
  Cim_util.Pool.with_pool ~jobs:2 (fun pool -> Kernels.with_pool (Some pool) f)

let test_quant_slice () =
  (* the large values outside the slice would set the scale if the offset
     were ignored *)
  let data = [| 100.; -50.; 3.; 0.25; -1.5; 0.75; 2.; -0.5; 1.; 9.; -99. |] in
  let shape = Shape.of_list [ 2; 3 ] in
  let expect off len = Oracle.quantize (Tensor.create (Shape.of_list [ len ]) (Array.sub data off len)) in
  Alcotest.(check bool) "slice at offset 3 = oracle of the copy" true
    (Oracle.qtensor_equal
       { (expect 3 6) with Oracle.shape }
       (Quant.quantize_slice data ~off:3 shape));
  List.iter
    (fun off ->
      match Quant.quantize_slice data ~off shape with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "quantize_slice accepted off=%d" off)
    [ -1; 6 ];
  (* a large slice, chunk-parallel *)
  let n = (1 lsl 17) + 5 and off = 12345 in
  let big = Array.init (n + off + 7) (fun i -> float_of_int ((i * 37 mod 301) - 150) /. 7.) in
  big.(3) <- 1e6;
  let shape = Shape.of_list [ n ] in
  Alcotest.(check bool) "parallel slice = oracle of the copy" true
    (Oracle.qtensor_equal
       (Oracle.quantize (Tensor.create shape (Array.sub big off n)))
       (with_kernel_pool (fun () -> Quant.quantize_slice big ~off shape)))

let test_quant_special_values () =
  (* values and the scale's bits, against the oracle: ties, signed zeros,
     nan (which makes the scale nan), infinities and a subnormal maximum
     (whose scale rounds to zero) *)
  let sub = 4.9e-322 in
  let nan1 = Int64.float_of_bits 0x7FF8_0000_0000_0123L
  and nan2 = Int64.float_of_bits 0xFFF8_0000_0000_ABCDL in
  let cases =
    [ ("ties", [| 0.5; -0.5; 1.5; -1.5; 2.5; -2.5; 126.5; -126.5; 127. |]);
      ("signed zeros", [| 0.; -0.; 1.; -0. |]);
      ("all zero", [| 0.; -0.; 0. |]);
      ("nan", [| 1.; nan1; -2.; 0.5 |]);
      ("two nans", [| nan1; 3.; nan2; -1. |]);
      ("+inf", [| 1.; Float.infinity; -3. |]);
      ("-inf", [| Float.neg_infinity; 2.; 0. |]);
      ("subnormal max", [| sub; -.sub; sub /. 2.; 0. |]) ]
  in
  List.iter
    (fun (label, values) ->
      let t = Tensor.create (Shape.of_list [ Array.length values ]) values in
      Alcotest.(check bool) (label ^ " = oracle") true
        (Oracle.qtensor_equal (Oracle.quantize t) (Quant.quantize t)))
    cases;
  (* nans in different parallel chunks: the scale is the last one's *)
  let n = 1 lsl 18 in
  let big = Array.init n (fun i -> float_of_int ((i mod 200) - 100) /. 7.) in
  big.(1000) <- nan1;
  big.(n - 1000) <- nan2;
  let t = Tensor.create (Shape.of_list [ n ]) big in
  Alcotest.(check bool) "parallel nans = oracle" true
    (Oracle.qtensor_equal (Oracle.quantize t) (with_kernel_pool (fun () -> Quant.quantize t)))

let test_qmatmul_zero_rows_cols () =
  (* the wide (m >= 8) route skips zero left-operand values: rows of [a]
     that are all zero, zero columns of [a] and zero columns of [b] must
     still give the oracle's accumulators and requantised tensor *)
  let m = 12 and k = 20 and n = 11 in
  let rng = Rng.create 5 in
  let a =
    Array.init (m * k) (fun idx ->
        if idx / k mod 3 = 0 || idx mod k mod 4 = 1 then 0 else Rng.int rng 256 - 128)
  in
  let b = Array.init (k * n) (fun idx -> if idx mod n mod 5 = 2 then 0 else Rng.int rng 256 - 128) in
  let zeros = Array.make (m * k) 0 in
  List.iter
    (fun (label, a) ->
      Alcotest.(check (array int)) (label ^ ": accumulators")
        (Oracle.qmatmul2d_boxed a b ~m ~k ~n)
        (Kernels.qmatmul2d (i8_of_array a) (i8_of_array b) ~m ~k ~n);
      let oa = { Oracle.values = a; scale = 0.03; shape = Shape.of_list [ m; k ] }
      and ob = { Oracle.values = b; scale = 0.07; shape = Shape.of_list [ k; n ] } in
      Alcotest.(check bool) (label ^ ": requantised = oracle") true
        (Oracle.qtensor_equal (Oracle.qmatmul oa ob) (Quant.matmul (unbox oa) (unbox ob))))
    [ ("zero rows and columns", a); ("all-zero a", zeros) ]

let test_functional_batched_qmatmul () =
  (* Functional's two batched layouts, [bd;m;k] x [k;n] (one shared
     weight) and [bd;m;k] x [bd;k;n], against a per-slice Oracle.qmatmul:
     every slice keeps its own scale *)
  let bd = 3 and m = 4 and k = 16 and n = 8 in
  let rng = Rng.create 43 in
  let module B = Cim_nnir.Builder in
  let bld = B.create "batched-matmul" in
  let x = B.input bld "x" (Shape.of_list [ bd; m; k ]) in
  let kv = B.input bld "kv" (Shape.of_list [ bd; k; n ]) in
  let wshape = Shape.of_list [ k; n ] in
  let wv = Tensor.rand rng wshape ~lo:(-0.5) ~hi:0.5 in
  let w = B.weight ~value:wv bld "w" wshape in
  let g = B.finish bld ~outputs:[ B.matmul bld x w; B.matmul bld x kv ] in
  (* slice 1 is ten times larger than the others, so a shared scale shows *)
  let xv =
    Tensor.init (Shape.of_list [ bd; m; k ]) (fun idx ->
        let s = if List.hd idx = 1 then 10. else 1. in
        s *. (Rng.float rng 2. -. 1.))
  in
  let kvv = Tensor.rand rng (Shape.of_list [ bd; k; n ]) ~lo:(-1.) ~hi:1. in
  let r = Cmswitch.compile chip g in
  let rep = Functional.run chip ~jobs:1 g r.Cmswitch.program ~inputs:[ ("x", xv); ("kv", kvv) ] in
  let slice t bi rows cols =
    Tensor.create (Shape.of_list [ rows; cols ])
      (Array.sub (Tensor.data t) (bi * rows * cols) (rows * cols))
  in
  let expect b_of =
    Array.concat
      (List.init bd (fun bi ->
           let q = Oracle.qmatmul (Oracle.quantize (slice xv bi m k)) (Oracle.quantize (b_of bi)) in
           Array.map (fun v -> float_of_int v *. q.Oracle.scale) q.Oracle.values))
  in
  match rep.Functional.outputs with
  | [ (_, half); (_, full) ] ->
    Alcotest.(check bool) "[bd;m;k] x [k;n] = per-slice oracle" true
      (float_bits_equal (expect (fun _ -> wv)) (Tensor.data half));
    Alcotest.(check bool) "[bd;m;k] x [bd;k;n] = per-slice oracle" true
      (float_bits_equal (expect (fun bi -> slice kvv bi k n)) (Tensor.data full))
  | outs -> Alcotest.failf "expected two outputs, got %d" (List.length outs)

(* ---- functional simulator byte-identity ----------------------------------- *)

let sim_cases () =
  let rng = Rng.create 31 in
  let mlp = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 64; 128; 32 ] () in
  let mlp_x = Tensor.rand rng (Shape.of_list [ 2; 64 ]) ~lo:(-1.) ~hi:1. in
  let cnn = Cim_models.Cnn.tiny_cnn ~rng ~batch:2 () in
  let cnn_x = Tensor.rand rng (Shape.of_list [ 2; 2; 8; 8 ]) ~lo:(-1.) ~hi:1. in
  (* one tiny-transformer decode block with a KV cache: Concat, Transpose,
     broadcast Add and Softmax on the vector path *)
  let rng = Rng.create 37 in
  let block =
    Cim_models.Transformer.build_layer (Cim_models.Transformer.tiny ())
      (Cim_models.Workload.decode ~batch:1 4) ~layer_index:0
    |> Cim_nnir.Graph.with_random_values rng
  in
  let block_inputs =
    List.map
      (fun (n, shape) -> (n, Tensor.rand rng shape ~lo:(-1.) ~hi:1.))
      block.Cim_nnir.Graph.graph_inputs
  in
  (* a depthwise conv: per-group sub-operator slices, then both pools *)
  let rng = Rng.create 41 in
  let dw = T_sim.depthwise_graph rng in
  let dw_x = Tensor.rand rng (Shape.of_list [ 1; 8; 6; 6 ]) ~lo:(-1.) ~hi:1. in
  [ ("mlp", mlp, [ ("x", mlp_x) ]);
    ("tiny-cnn", cnn, [ ("image", cnn_x) ]);
    ("tiny-transformer", block, block_inputs);
    ("depthwise", dw, [ ("image", dw_x) ]) ]

let sim_digests () =
  List.map
    (fun (name, g, inputs) ->
      let r = Cmswitch.compile chip g in
      let digest ~jobs =
        Functional.digest (Functional.run chip ~jobs g r.Cmswitch.program ~inputs)
      in
      let d1 = digest ~jobs:1 in
      Alcotest.(check string) (name ^ ": jobs=4 = jobs=1") d1 (digest ~jobs:4);
      (name, d1))
    (sim_cases ())

let test_sim_byte_identity () = ignore (sim_digests ())

(* golden fixture: one digest line per model so any drift in the kernels,
   the quantised pipeline or the digest itself is caught against version
   control; "bigarray" names the kernel engine the digests were taken on *)
let golden_dir () =
  List.find_opt Sys.file_exists [ "../../../test/golden"; "test/golden"; "golden" ]

let golden_path () =
  Filename.concat (Option.value (golden_dir ()) ~default:"golden") "functional_sim.txt"

let render_digests ds =
  String.concat ""
    (List.map (fun (name, d) -> Printf.sprintf "%s bigarray %s\n" name d) ds)

let test_sim_golden () =
  let rendered = render_digests (sim_digests ()) in
  let path = golden_path () in
  if Sys.getenv_opt "CMSWITCH_UPDATE_GOLDEN" = Some "1" then begin
    let oc = open_out path in
    output_string oc rendered;
    close_out oc;
    Printf.printf "golden fixture refreshed: %s\n" path
  end
  else begin
    if not (Sys.file_exists path) then
      Alcotest.failf "missing fixture %s — run CMSWITCH_UPDATE_GOLDEN=1 dune runtest" path;
    let ic = open_in path in
    let expected =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if expected <> rendered then
      Printf.printf
        "golden mismatch for %s: if the change is intentional, refresh with \
         CMSWITCH_UPDATE_GOLDEN=1 dune runtest\n"
        path;
    Alcotest.(check string) "functional-sim digests match fixture" expected rendered
  end

let suite =
  ( "kernels",
    [ matmul_differential;
      qmatmul_differential;
      conv_differential;
      im2col_differential;
      broadcast_differential;
      permute_differential;
      concat_differential;
      pool_differential;
      attention_differential;
      embedding_differential;
      Alcotest.test_case "Tensor.rand = Rng.float draws" `Quick test_rand_draw_order;
      Alcotest.test_case "batched matmul = looped 2-d" `Quick test_batched_vs_looped;
      Alcotest.test_case "quantisation edges" `Quick test_quant_edges;
      Alcotest.test_case "quantize slice at an offset" `Quick test_quant_slice;
      Alcotest.test_case "quantize special values" `Quick test_quant_special_values;
      Alcotest.test_case "wide qmatmul zero rows/cols" `Quick test_qmatmul_zero_rows_cols;
      Alcotest.test_case "functional batched qmatmul" `Quick test_functional_batched_qmatmul;
      Alcotest.test_case "functional sim byte-identity" `Quick test_sim_byte_identity;
      Alcotest.test_case "functional sim golden digests" `Quick test_sim_golden ] )
