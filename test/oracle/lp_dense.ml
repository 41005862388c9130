(* The seed dense tableau simplex, preserved as the oracle the QCheck
   differential suite checks the revised solver against. One row per
   constraint plus one synthetic <= row per finite upper bound; phase 1
   over artificial variables, phase 2 over the real objective; Bland's
   rule throughout. *)

open Cim_solver.Lp

let m_solves = Cim_obs.Metrics.counter "solver.lp_dense.solves"
let m_pivots = Cim_obs.Metrics.counter "solver.lp_dense.pivots"
let m_wall = Cim_obs.Metrics.counter "solver.lp_dense.wall_seconds"

exception Iter_limit

let solve_raw ~eps ~max_iters (p : problem) =
  Cim_obs.Metrics.incr m_solves;
  let n = p.n_vars in
  (* Shift variables to zero lower bound; fold finite upper bounds into
     extra <= rows. *)
  let shift = p.lower in
  let base_rows =
    List.map
      (fun (coeffs, op, rhs) ->
        let adj = ref rhs in
        Array.iteri (fun j c -> adj := !adj -. (c *. shift.(j))) coeffs;
        (Array.copy coeffs, op, !adj))
      p.rows
  in
  let bound_rows =
    List.concat
      (List.init n (fun j ->
           if Float.is_finite p.upper.(j) then begin
             let coeffs = Array.make n 0. in
             coeffs.(j) <- 1.;
             [ (coeffs, Le, p.upper.(j) -. shift.(j)) ]
           end
           else []))
  in
  let rows = Array.of_list (base_rows @ bound_rows) in
  let m = Array.length rows in
  (* Normalise RHS to be non-negative. *)
  let rows =
    Array.map
      (fun (coeffs, op, rhs) ->
        if rhs < 0. then
          ( Array.map (fun c -> -.c) coeffs,
            (match op with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.rhs )
        else (coeffs, op, rhs))
      rows
  in
  (* Count slack and artificial columns. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun (_, op, _) ->
      match op with
      | Le -> incr n_slack
      | Ge -> incr n_slack; incr n_art
      | Eq -> incr n_art)
    rows;
  let total = n + !n_slack + !n_art in
  let t = Array.make_matrix (m + 1) (total + 1) 0. in
  let basis = Array.make m (-1) in
  let art_cols = ref [] in
  let slack_at = ref n and art_at = ref (n + !n_slack) in
  Array.iteri
    (fun i (coeffs, op, rhs) ->
      Array.blit coeffs 0 t.(i) 0 n;
      t.(i).(total) <- rhs;
      (match op with
      | Le ->
        t.(i).(!slack_at) <- 1.;
        basis.(i) <- !slack_at;
        incr slack_at
      | Ge ->
        t.(i).(!slack_at) <- -1.;
        incr slack_at;
        t.(i).(!art_at) <- 1.;
        basis.(i) <- !art_at;
        art_cols := !art_at :: !art_cols;
        incr art_at
      | Eq ->
        t.(i).(!art_at) <- 1.;
        basis.(i) <- !art_at;
        art_cols := !art_at :: !art_cols;
        incr art_at))
    rows;
  let is_artificial = Array.make total false in
  List.iter (fun c -> is_artificial.(c) <- true) !art_cols;
  let obj = m in
  (* One simplex run over the current objective row. [restrict] excludes
     columns (artificials in phase 2) from entering the basis.
     Returns false on unboundedness. *)
  let iterate restrict =
    let iters = ref 0 in
    let continue_ = ref true in
    let bounded = ref true in
    while !continue_ do
      incr iters;
      if !iters > max_iters then raise Iter_limit;
      (* Bland's rule: smallest-index column with negative reduced cost. *)
      let entering = ref (-1) in
      (try
         for j = 0 to total - 1 do
           if (not (restrict && is_artificial.(j))) && t.(obj).(j) < -.eps then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !entering < 0 then continue_ := false
      else begin
        let e = !entering in
        (* Smallest ratio; ties broken by smallest basis index (Bland). *)
        let leave = ref (-1) and best = ref infinity in
        for i = 0 to m - 1 do
          if t.(i).(e) > eps then begin
            let ratio = t.(i).(total) /. t.(i).(e) in
            if
              ratio < !best -. eps
              || (Float.abs (ratio -. !best) <= eps
                  && !leave >= 0
                  && basis.(i) < basis.(!leave))
            then begin
              best := ratio;
              leave := i
            end
          end
        done;
        if !leave < 0 then begin
          bounded := false;
          continue_ := false
        end
        else begin
          Cim_obs.Metrics.incr m_pivots;
          let l = !leave in
          let pivot = t.(l).(e) in
          for j = 0 to total do
            t.(l).(j) <- t.(l).(j) /. pivot
          done;
          for i = 0 to m do
            if i <> l && Float.abs t.(i).(e) > 0. then begin
              let f = t.(i).(e) in
              for j = 0 to total do
                t.(i).(j) <- t.(i).(j) -. (f *. t.(l).(j))
              done
            end
          done;
          basis.(l) <- e
        end
      end
    done;
    !bounded
  in
  let price_out () =
    (* Make the objective row consistent with the current basis. *)
    for i = 0 to m - 1 do
      let c = t.(obj).(basis.(i)) in
      if Float.abs c > 0. then
        for j = 0 to total do
          t.(obj).(j) <- t.(obj).(j) -. (c *. t.(i).(j))
        done
    done
  in
  (* Phase 1: minimise the sum of artificials, i.e. maximise -sum. *)
  let infeasible = ref false in
  if !n_art > 0 then begin
    for j = 0 to total do
      t.(obj).(j) <- 0.
    done;
    List.iter (fun c -> t.(obj).(c) <- 1.) !art_cols;
    price_out ();
    ignore (iterate false);
    (* t.(obj).(total) now holds -(sum of artificials). *)
    if Float.abs t.(obj).(total) > 1e-6 then infeasible := true
    else
      (* Pivot any artificial still in the basis out (degenerate rows). *)
      for i = 0 to m - 1 do
        if is_artificial.(basis.(i)) then begin
          let found = ref (-1) in
          (try
             for j = 0 to total - 1 do
               if (not is_artificial.(j)) && Float.abs t.(i).(j) > eps then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          match !found with
          | -1 -> () (* all-zero row: redundant constraint, harmless *)
          | e ->
            let pivot = t.(i).(e) in
            for j = 0 to total do
              t.(i).(j) <- t.(i).(j) /. pivot
            done;
            for i' = 0 to m do
              if i' <> i && Float.abs t.(i').(e) > 0. then begin
                let f = t.(i').(e) in
                for j = 0 to total do
                  t.(i').(j) <- t.(i').(j) -. (f *. t.(i).(j))
                done
              end
            done;
            basis.(i) <- e
        end
      done
  end;
  if !infeasible then Infeasible
  else begin
    (* Phase 2: real objective (maximise c.x -> row holds -c priced out). *)
    for j = 0 to total do
      t.(obj).(j) <- 0.
    done;
    for j = 0 to n - 1 do
      t.(obj).(j) <- -.p.maximize.(j)
    done;
    price_out ();
    if not (iterate true) then Unbounded
    else begin
      let values = Array.make n 0. in
      for i = 0 to m - 1 do
        if basis.(i) < n then values.(basis.(i)) <- t.(i).(total)
      done;
      let values = Array.mapi (fun j v -> v +. shift.(j)) values in
      let objective =
        Array.to_list (Array.mapi (fun j c -> c *. values.(j)) p.maximize)
        |> List.fold_left ( +. ) 0.
      in
      Optimal { values; objective }
    end
  end

let solve ?(eps = 1e-9) ?(max_iters = 20_000) ?(validate = false) p =
  if validate then check p;
  let timed = Cim_obs.Metrics.enabled () in
  let t0 = if timed then Unix.gettimeofday () else 0. in
  let r = try solve_raw ~eps ~max_iters p with Iter_limit -> Iteration_limit in
  if timed then
    Cim_obs.Metrics.incr m_wall ~by:(Unix.gettimeofday () -. t0);
  r
