type var = { index : int; vname : string; integer : bool }

type expr = (float * var) list

type row = { coeffs : (float * var) list; op : Lp.op; rhs : float }

type t = {
  name : string;
  mutable vars : var list; (* reversed *)
  mutable lbs : float list; (* reversed *)
  mutable ubs : float list; (* reversed *)
  mutable rows : row list; (* reversed *)
  mutable objective : expr;
  mutable sense_max : bool;
  mutable solution : Lp.solution option;
}

let create ?(name = "model") () =
  { name; vars = []; lbs = []; ubs = []; rows = []; objective = [];
    sense_max = true; solution = None }

let add_var t ?(lb = 0.) ?(ub = infinity) ?(integer = false) vname =
  let v = { index = List.length t.vars; vname; integer } in
  t.vars <- v :: t.vars;
  t.lbs <- lb :: t.lbs;
  t.ubs <- ub :: t.ubs;
  t.solution <- None;
  v

let var_name v = v.vname

let add_row t coeffs op rhs =
  t.rows <- { coeffs; op; rhs } :: t.rows;
  t.solution <- None

let add_le t ?name:_ expr rhs = add_row t expr Lp.Le rhs
let add_ge t ?name:_ expr rhs = add_row t expr Lp.Ge rhs
let add_eq t ?name:_ expr rhs = add_row t expr Lp.Eq rhs

let maximize t expr =
  t.objective <- expr;
  t.sense_max <- true;
  t.solution <- None

let minimize t expr =
  t.objective <- expr;
  t.sense_max <- false;
  t.solution <- None

type outcome =
  | Optimal of float
  | Infeasible
  | Unbounded
  | Truncated of float option

let to_problem t =
  let n = List.length t.vars in
  let dense expr =
    let arr = Array.make n 0. in
    List.iter (fun (c, v) -> arr.(v.index) <- arr.(v.index) +. c) expr;
    arr
  in
  let sign = if t.sense_max then 1. else -1. in
  let objective = Array.map (fun c -> sign *. c) (dense t.objective) in
  let rows =
    List.rev_map (fun r -> (dense r.coeffs, r.op, r.rhs)) t.rows
  in
  let lower = Array.of_list (List.rev t.lbs) in
  let upper = Array.of_list (List.rev t.ubs) in
  let kinds =
    Array.of_list
      (List.rev_map
         (fun v -> if v.integer then Milp.Integer else Milp.Continuous)
         t.vars)
  in
  ({ Lp.n_vars = n; maximize = objective; rows; lower; upper }, kinds)

let solve ?max_nodes ?gap t =
  let p, kinds = to_problem t in
  let sign = if t.sense_max then 1. else -1. in
  let has_integer = Array.exists (fun k -> k = Milp.Integer) kinds in
  let lift (sol : Lp.solution) = sign *. sol.Lp.objective in
  if has_integer then begin
    match Milp.solve ?max_nodes ?gap p ~kinds with
    | Milp.Optimal sol ->
      t.solution <- Some sol;
      Optimal (lift sol)
    | Milp.Infeasible -> Infeasible
    | Milp.Unbounded -> Unbounded
    | Milp.Node_limit sol ->
      t.solution <- sol;
      Truncated (Option.map lift sol)
  end
  else begin
    match Lp.solve ~validate:true p with
    | Lp.Optimal sol ->
      t.solution <- Some sol;
      Optimal (lift sol)
    | Lp.Infeasible -> Infeasible
    | Lp.Unbounded -> Unbounded
    | Lp.Iteration_limit -> Truncated None
  end

let value t v =
  match t.solution with
  | None -> failwith "Model.value: no stored solution"
  | Some sol -> sol.Lp.values.(v.index)

let int_value t v =
  if not v.integer then failwith ("Model.int_value: " ^ v.vname ^ " is continuous");
  int_of_float (Float.round (value t v))

let n_vars t = List.length t.vars
let n_constraints t = List.length t.rows

let pp_stats ppf t =
  Format.fprintf ppf "model %s: %d vars (%d integer), %d constraints" t.name
    (n_vars t)
    (List.length (List.filter (fun v -> v.integer) t.vars))
    (n_constraints t)
