(** Deterministic splittable RNG (splitmix64) so every experiment, test and
    synthetic workload is reproducible without touching the global [Random]
    state. *)

type t

val create : int -> t
(** [create seed] builds an independent generator. *)

val copy : t -> t

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] uniform in [0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] uniform in [0, bound). *)

val fill_uniform : t -> float array -> lo:float -> hi:float -> unit
(** [fill_uniform t a ~lo ~hi] writes [a] in index order with exactly the
    values that [lo +. float t (hi -. lo)] draws one at a time, and leaves
    [t] in the state those draws leave; it allocates nothing per
    element. *)

val bool : t -> bool

val int_range : t -> int -> int -> int
(** [int_range t lo hi] uniform in [lo, hi] inclusive; requires [lo <= hi]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box–Muller normal sample. *)

val split : t -> t
(** Derive an independent child stream. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
