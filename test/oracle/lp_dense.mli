(** Dense two-phase tableau simplex — the original CMSwitch LP core, kept
    verbatim as the differential oracle for the bounded-variable revised
    simplex in {!Cim_solver.Lp}, and as the LP core of {!Oracle.milp}.

    Finite upper bounds are folded into explicit [<=] rows and the tableau
    is rebuilt from scratch on every call, which is exactly the cost the
    revised solver removes. Shares {!Cim_solver.Lp.problem} /
    {!Cim_solver.Lp.result}. *)

val solve :
  ?eps:float -> ?max_iters:int -> ?validate:bool -> Cim_solver.Lp.problem ->
  Cim_solver.Lp.result
(** [eps] is the feasibility/optimality tolerance (default 1e-9).
    [validate] (default [false]) runs {!Cim_solver.Lp.check} first. Returns
    [Lp.Iteration_limit] when the pivot budget (default 20_000) runs
    out. *)
