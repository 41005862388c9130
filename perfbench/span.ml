(* In-memory spans for the benchmark's traced run.

   Spans are taken by the benchmark around its own calls into the
   library's public functions; nothing under lib/ is instrumented. They
   are kept in memory while the run measures and written out once, at
   exit. A span may be opened on any domain (the fleet planner runs on
   pool workers), so the record list is mutex-guarded and the innermost
   open span is tracked per domain. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  op : int;  (** the op being measured when the span closed; -1 outside ops *)
  start : float;
  stop : float;
  alloc_words : float;  (** words allocated over the span, see [alloc_words] *)
  hwm_step_kb : int;  (** growth of the process's peak RSS over the span *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 0
let current_op = Atomic.make (-1)
let innermost : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

(* VmHWM from /proc/self/status, in kB; 0 where procfs is unavailable *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Every domain's words, pool workers included. The runtime updates these
   counts at minor collections, so a span's figure is exact only to about
   one minor heap (256 k words) per domain. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let current () = Domain.DLS.get innermost

let with_span ?parent name f =
  if not !enabled then f ()
  else begin
    let parent = match parent with Some p -> p | None -> current () in
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = current () in
    Domain.DLS.set innermost id;
    let h0 = vm_hwm_kb () in
    let a0 = alloc_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let a1 = alloc_words () in
      let h1 = vm_hwm_kb () in
      Domain.DLS.set innermost saved;
      let s =
        { id; name; parent; op = Atomic.get current_op; start = t0; stop = t1;
          alloc_words = a1 -. a0; hwm_step_kb = h1 - h0 }
      in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Length of [lo, hi] covered by the union of the intervals. *)
let covered (lo, hi) ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

(* Each span with the time its children cover. Self time is the duration
   minus that. *)
let with_child_cover spans =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.start, s.stop)) spans;
  List.map
    (fun s -> (s, covered (s.start, s.stop) (Hashtbl.find_all kids s.id)))
    spans

let self_time (s, cover) = s.stop -. s.start -. cover

let to_json_file file spans =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.6f,\
             \"end\":%.6f,\"alloc_words\":%.0f,\"hwm_step_kb\":%d}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.op s.start s.stop s.alloc_words s.hwm_step_kb)
        spans;
      output_string oc "]\n")
