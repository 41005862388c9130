(** Bounded-variable revised simplex for small linear programs.

    Problems are stated as: maximise [c . x] subject to row constraints and
    per-variable bounds. Lower bounds must be finite (every CMSwitch model
    has natural 0 lower bounds); upper bounds may be [infinity].

    Unlike the dense tableau solver this replaces (kept in the test-only
    oracle library as a differential reference), variable bounds are handled implicitly
    through nonbasic-at-lower/at-upper statuses — no synthetic bound rows —
    so the working basis stays at one row per constraint. The basis inverse
    is maintained in product form and refactorized periodically
    ({!Basis}); pricing is Dantzig with an automatic Bland fallback once a
    degeneracy-cycle threshold is hit. Feasibility is reached by a
    zero-objective dual simplex from the all-slack basis, which is the same
    machinery that makes warm starts cheap: {!solve} with [?warm] installs
    a caller-provided basis snapshot and repairs the (typically one-bound)
    primal infeasibility with a handful of dual pivots instead of
    re-solving from scratch. *)

type op = Le | Ge | Eq

type problem = {
  n_vars : int;
  maximize : float array;                       (** length n_vars *)
  rows : (float array * op * float) list;       (** coeffs, op, rhs *)
  lower : float array;
  upper : float array;
}

type solution = { values : float array; objective : float }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The pivot budget ran out (or the factorization broke down) before
          optimality was proved. Callers degrade — the {!Milp} search
          truncates to its incumbent and the compiler's ladder falls back
          to the greedy allocator — instead of crashing the compile. *)

type vstat = Basic | Nonbasic_lower | Nonbasic_upper

type basis
(** Snapshot of an optimal basis: the status of every column (structural
    and slack), the basic column of every row, and the factorized inverse
    at snapshot time. Valid as a warm start ONLY for a problem with the
    same constraint rows (bounds and objective may differ) — exactly the
    branch-and-bound child shape, where the parent basis stays
    dual-feasible because a branch only tightens one bound. The shared
    matrix is what lets the install reuse the snapshot's [B^-1] (an
    O(m^2) copy) instead of refactorizing (O(m^3)); a snapshot from a
    same-shaped but different matrix is not detected and yields garbage. *)

val basis_status : basis -> int -> vstat
(** Status of structural variable [j] in the snapshot. *)

exception Ill_formed of string

val check : problem -> unit
(** O(n.m) structural validation: dimension agreement, finite lower
    bounds, finite coefficients. Raises {!Ill_formed}. Opt-in via
    [?validate] — call sites validate once at the root of a
    branch-and-bound search, not on every warm-started re-solve. *)

val solve :
  ?eps:float -> ?max_iters:int -> ?validate:bool -> ?warm:basis ->
  problem -> result
(** [eps] is the optimality tolerance (default 1e-9); primal feasibility
    is tested relative to bound magnitude. [max_iters] bounds total simplex
    iterations (default 20_000). [validate] (default [false]) runs
    {!check} first. [warm] starts from a basis snapshot (see {!basis});
    a snapshot that does not fit the problem shape is rejected and the
    solve falls back to a cold start. *)

val solve_info :
  ?eps:float -> ?max_iters:int -> ?validate:bool -> ?warm:basis ->
  problem -> result * basis option
(** Like {!solve}, additionally returning the optimal basis snapshot on
    [Optimal] (and [None] otherwise). *)

type prepared
(** The bound-independent computational form of a problem: negated/scaled
    rows, objective, slack kinds. Branch-and-bound re-solves the same rows
    under dozens of bound boxes; preparing once amortises the O(n.m)
    conversion over the whole tree. A [prepared] value also carries the
    solver's reusable scratch (bounds, statuses, the factorized inverse),
    allocated lazily on first solve — so use one [prepared] value per
    domain and do not interleave solves on the same value. *)

val prepare : problem -> prepared

val solve_prepared :
  ?eps:float -> ?max_iters:int -> ?warm:basis ->
  prepared -> lower:float array -> upper:float array ->
  result * (unit -> basis) option
(** Like {!solve_info} over a prepared form with substituted variable
    bounds (lengths as in the original problem); no validation pass. The
    basis snapshot comes back as a thunk so callers that do not branch
    (pruned nodes, integral leaves, heuristic probes) never pay the
    O(m^2) export — but it reads the live workspace, so it must be forced
    before the next solve on the same [prepared] value. *)

val reduced_costs : prepared -> basis -> float array
(** Reduced cost of each structural variable at the snapshotted basis
    (0 for basic variables), priced from the snapshot's own inverse.
    Off the re-solve hot path on purpose: only the root of a
    branch-and-bound search consumes reduced costs (for bound
    tightening), so they are not computed on every [Optimal] return. *)
