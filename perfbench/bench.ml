(* Closed-loop execution of a workload's passes and the metrics they
   yield. *)

let now = Unix.gettimeofday

type record = {
  job : Job.t;
  outcome : Job.outcome;
  latency : float;  (* job start to verdict, seconds *)
}

type pass = {
  records : record array;
  elapsed : float;
  busy : float array;  (* summed job latency per client *)
  lane_cycles : int;   (* sim.kernel.lane_cycles over the pass *)
  obs_counts : (string * int) list;  (* solver counters over the pass *)
}

let solver_counters = [ "ilp.components"; "ilp.nodes"; "mis.components"; "mis.nodes" ]

(* The seed shuffles the order of the canonical pass's groups; nothing
   else depends on it.  A group's jobs keep their canonical order. *)
let pass_order ~seed (w : Workloads.t) =
  Circuits.Rng.shuffle (Circuits.Rng.create seed) w.Workloads.groups
  |> List.concat |> Array.of_list

(* One pass of [jobs] on [pool]: clients pull jobs in order.  The library
   records Obs events on every call and keeps them until Obs.reset, which
   is only safe while no client runs; so the pass runs in batches of
   [batch] jobs, reading the Obs counters it needs and resetting between
   them.  That bounds memory, at the cost of idling early finishers at
   each barrier (it shows in jobs.worker_busy_share).  [exec] runs one
   job on client [w]. *)
let run_pass pool ~batch jobs ~exec =
  let n = Array.length jobs in
  let records = Array.make n None in
  let busy = Array.make (Jobs.pool_size pool) 0.0 in
  let lane_cycles = ref 0 in
  let obs_counts = Hashtbl.create 8 in
  Obs.reset ();
  let t0 = now () in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + batch) in
    let next = Atomic.make !lo in
    Jobs.pool_run pool (fun w ->
        let rec pull () =
          let i = Atomic.fetch_and_add next 1 in
          if i < hi then begin
            let outcome, latency = exec w i jobs.(i) in
            busy.(w) <- busy.(w) +. latency;
            records.(i) <- Some { job = jobs.(i); outcome; latency };
            pull ()
          end
        in
        pull ());
    lane_cycles := !lane_cycles + Obs.counter_of "sim.kernel.lane_cycles";
    List.iter
      (fun c ->
        Hashtbl.replace obs_counts c
          (Obs.counter_of c + Option.value (Hashtbl.find_opt obs_counts c) ~default:0))
      solver_counters;
    Obs.reset ();
    lo := hi
  done;
  { records = Array.map Option.get records;
    elapsed = now () -. t0;
    busy;
    lane_cycles = !lane_cycles;
    obs_counts = List.map (fun c -> (c, Hashtbl.find obs_counts c)) solver_counters }

let plain_exec _ _ (job : Job.t) = Job.run job.Job.plain

(* --- metrics --------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Peak resident memory of this process (Linux VmHWM), MiB. *)
let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l ->
            (try Scanf.sscanf l "VmHWM: %d kB" float_of_int
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> find ())
        in
        find ())
  in
  kb /. 1024.0

(* The committed table: one "<key>\t<verdict>" line per job. *)
let load_expected path =
  let tbl = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      Seq.iter
        (fun line ->
          match String.index_opt line '\t' with
          | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ())
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  tbl

let expected_ok expected (r : record) =
  match Hashtbl.find_opt expected r.job.Job.key with
  | Some v -> String.equal v r.outcome.Job.verdict
  | None -> false

(* Output check: every verdict must equal the committed expected one. *)
let mismatches expected records =
  List.filter_map
    (fun r ->
      if expected_ok expected r then None
      else begin
        Printf.eprintf "mismatch %s: got %S, expected %s\n%!" r.job.Job.key
          r.outcome.Job.verdict
          (match Hashtbl.find_opt expected r.job.Job.key with
           | Some v -> Printf.sprintf "%S" v
           | None -> "no entry");
        Some r
      end)
    records

let latch_ratio (w : Workloads.t) records =
  match w.Workloads.setup_latch_ratio with
  | Some (latches, ffs) -> float_of_int latches /. float_of_int ffs
  | None ->
    let latches, ffs =
      List.fold_left
        (fun (l, f) r ->
          if r.outcome.Job.klass = Job.Converted then
            (l + r.outcome.Job.latches, f + r.outcome.Job.ffs)
          else (l, f))
        (0, 0) records
    in
    float_of_int latches /. float_of_int (max 1 ffs)

(* Geometric mean over designs of 3-phase total power over FF total
   power; 0 when the workload evaluates no power. *)
let power_ratio records =
  let power = List.filter_map (fun r -> r.outcome.Job.power) records in
  let ratios =
    List.filter_map
      (fun (bench, variant, p3) ->
        if not (String.equal variant "3p") then None
        else
          List.find_map
            (fun (b, v, ff) ->
              if String.equal b bench && String.equal v "ff" then Some (p3 /. ff)
              else None)
            power)
      power
  in
  match ratios with
  | [] -> 0.0
  | _ ->
    exp
      (List.fold_left (fun a r -> a +. log r) 0.0 ratios
       /. float_of_int (List.length ratios))

let count_klass k records =
  List.length (List.filter (fun r -> r.outcome.Job.klass = k) records)
