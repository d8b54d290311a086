(* Spans and counts recorded from outside the library, around calls into
   each layer's public functions.  Each worker domain of the traced
   replay owns one recorder, so recording takes no lock. *)

type span = {
  id : int;
  parent : int;  (* -1 for a job's root span *)
  job : int;
  name : string;
  start : float;
  stop : float;
  words : float;  (* words allocated during the span, children included *)
}

type t = {
  worker : int;
  mutable job : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (* newest first *)
  counts : (string, float) Hashtbl.t;
}

let create worker =
  { worker; job = 0; next = 0; stack = []; spans = []; counts = Hashtbl.create 32 }

(* Words the calling domain allocated, each counted once (minor + major
   - promoted).  Gc.counters is per domain, where Gc.quick_stat sums all
   domains and would charge one worker for another's allocations. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = allocated_words () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let words = allocated_words () -. w0 in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; job = t.job; name; start; stop; words } :: t.spans
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

let count t name v =
  let old = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0 in
  Hashtbl.replace t.counts name (old +. v)

(* Self time and self allocation per span name over all recorders: a
   span's own share, minus what its direct children cover. *)
let self_totals recorders =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let child_time = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
      let add tbl k v =
        Hashtbl.replace tbl k
          (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
      in
      List.iter
        (fun s ->
          if s.parent >= 0 then begin
            add child_time s.parent (s.stop -. s.start);
            add child_words s.parent s.words
          end)
        t.spans;
      List.iter
        (fun s ->
          let get tbl = Option.value (Hashtbl.find_opt tbl s.id) ~default:0.0 in
          let self_s = Float.max 0.0 (s.stop -. s.start -. get child_time) in
          let self_w = Float.max 0.0 (s.words -. get child_words) in
          let t0, w0 =
            Option.value (Hashtbl.find_opt totals s.name) ~default:(0.0, 0.0)
          in
          Hashtbl.replace totals s.name (t0 +. self_s, w0 +. self_w))
        t.spans)
    recorders;
  totals

let counted recorders name =
  List.fold_left
    (fun acc t ->
      acc +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.0)
    0.0 recorders

(* One JSON object per span, in start order, times relative to the
   earliest span. *)
let write_jsonl recorders path =
  let spans =
    List.concat_map (fun t -> List.map (fun s -> (t.worker, s)) t.spans) recorders
    |> List.sort (fun (_, a) (_, b) -> compare a.start b.start)
  in
  let origin = match spans with (_, s) :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  List.iter
    (fun (worker, s) ->
      Printf.fprintf oc
        "{\"worker\":%d,\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\"words\":%.0f}\n"
        worker s.id s.parent s.job s.name (s.start -. origin) (s.stop -. origin)
        s.words)
    spans;
  close_out oc
