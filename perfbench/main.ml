(* The conversion benchmark.  See perfbench/README.md.

     main.exe --workload fleet|big|power --seed N --seconds S --trace 0|1
     main.exe --record FILE        regenerate the expected-verdict table

   Prints one "name value unit" line per metric, then, as the last line
   of standard output, the result as one JSON object. *)

let now = Unix.gettimeofday

(* --- the metrics, in BENCHMARK.json's order -------------------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("jobs_per_s", "1/s"); ("job_p50_s", "s");
    ("job_p90_s", "s"); ("lane_cycles_per_s", "1/s"); ("peak_rss_mb", "MiB");
    ("qor.latch_ratio", "ratio") ]

(* every layer the traced replay brackets with a span *)
let layer_spans =
  [ "netlist_io.parse"; "netlist_io.write"; "elab.read"; "netlist.validate";
    "phase3.assign"; "phase3.convert"; "phase3.retime"; "phase3.clock_gating";
    "sim.stimulus"; "sim.kernel.create"; "sim.kernel.run"; "sim.equivalence";
    "sta.smo"; "lint.run"; "sta.hold_fix"; "physical.implement";
    "power.estimate" ]

let layer_counts =
  [ ("netlist_io.bytes", "bytes"); ("ilp.components", "count");
    ("ilp.nodes", "count"); ("mis.components", "count"); ("mis.nodes", "count");
    ("phase3.inserted_latches", "count"); ("sta.smo.iterations", "count");
    ("sta.smo.nonconverged", "count"); ("lint.errors", "count") ]

let per_layer =
  List.map (fun s -> (s ^ "_s", "s")) layer_spans
  @ layer_counts
  @ [ ("sim.kernel.ns_per_lane_cycle", "ns");
      ("sim.kernel.waves_skipped_share", "ratio");
      ("jobs.worker_busy_share", "ratio"); ("fail.lint", "count");
      ("fail.equivalence", "count"); ("fail.exception", "count");
      ("fail.mismatch", "count"); ("failed_share", "ratio");
      ("qor.power_ratio", "ratio"); ("tracing_overhead", "ratio") ]
  @ List.map (fun s -> (s ^ ".alloc_words", "words")) layer_spans

(* --- output ---------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed ~notes metrics values =
  List.iter print_endline notes;
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-34s %18.9g %s\n" name (List.assoc name values) unit)
    metrics;
  let fields =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (List.assoc name values)) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* --- untraced run ---------------------------------------------------- *)

let setups = 3

(* Set up [setups] times and keep the last; setup_s is the median. *)
let timed_setup make =
  let rec go k times =
    let t0 = now () in
    let w = make () in
    let times = (now () -. t0) :: times in
    if k = 1 then (w, Bench.median times) else go (k - 1) times
  in
  go setups []

let measure ~expected ~seed ~seconds make =
  let w, setup_s = timed_setup make in
  let jobs = Bench.pass_order ~seed w in
  (* the timed window starts on a compacted heap, without setup's garbage *)
  Gc.compact ();
  let passes =
    Jobs.with_pool ~jobs:w.Workloads.workers (fun pool ->
        let t0 = now () in
        let rec go acc =
          let p = Bench.run_pass pool ~batch:w.Workloads.batch jobs ~exec:Bench.plain_exec in
          if now () -. t0 < seconds then go (p :: acc) else List.rev (p :: acc)
        in
        go [])
  in
  let records = List.concat_map (fun p -> Array.to_list p.Bench.records) passes in
  List.iter
    (fun r -> Printf.eprintf "%-28s %10.3f s\n" r.Bench.job.Job.key r.Bench.latency)
    records;
  let elapsed = List.fold_left (fun a p -> a +. p.Bench.elapsed) 0.0 passes in
  let lane_cycles = List.fold_left (fun a p -> a + p.Bench.lane_cycles) 0 passes in
  let bad = Bench.mismatches expected records in
  let ok_converted =
    List.filter
      (fun r -> r.Bench.outcome.Job.klass = Job.Converted && Bench.expected_ok expected r)
      records
  in
  let latencies = List.map (fun r -> r.Bench.latency) records in
  let values =
    [ ("setup_s", setup_s);
      ("jobs_per_s", float_of_int (List.length ok_converted) /. elapsed);
      ("job_p50_s", Bench.median latencies);
      ("job_p90_s", Bench.percentile 0.9 latencies);
      ("lane_cycles_per_s", float_of_int lane_cycles /. elapsed);
      ("peak_rss_mb", Bench.peak_rss_mb ());
      ("qor.latch_ratio", Bench.latch_ratio w records) ]
  in
  let notes =
    [ Printf.sprintf "# %s seed %d: %d passes of %d jobs on %d client(s) in %.3f s; \
                      job_p50_s/job_p90_s over %d samples"
        w.Workloads.name seed (List.length passes) (Array.length jobs)
        w.Workloads.workers elapsed (List.length latencies) ]
  in
  print_result ~correct:(bad = []) ~attempted:(List.length records)
    ~failed:(List.length bad) ~notes end_to_end values

(* --- traced run ------------------------------------------------------ *)

(* where the traced run writes its spans *)
let trace_dir = ".bench_build/perfbench"

(* One untraced pass, then the same jobs again through the staged
   replay on the same clients.  Per-layer numbers come from the replay;
   failure accounting and worker busy share from the untraced pass. *)
let traced ~expected ~seed make =
  let w = make () in
  let jobs = Bench.pass_order ~seed w in
  Gc.compact ();
  let workers = w.Workloads.workers in
  let recorders = Array.init workers Trace.create in
  let untraced, replay =
    Jobs.with_pool ~jobs:workers (fun pool ->
        let batch = w.Workloads.batch in
        let untraced = Bench.run_pass pool ~batch jobs ~exec:Bench.plain_exec in
        let replay =
          Bench.run_pass pool ~batch jobs ~exec:(fun c i (job : Job.t) ->
              let tr = recorders.(c) in
              tr.Trace.job <- i;
              (* the root span carries the job's key *)
              Job.run (fun () -> Trace.span tr job.Job.key (fun () -> job.Job.traced tr)))
        in
        (untraced, replay))
  in
  let records = Array.to_list untraced.Bench.records in
  let bad = Bench.mismatches expected records in
  (* mirror check: the staged replay must reach Flow.run's verdicts *)
  let diverged =
    List.filter_map
      (fun (u, r) ->
        if String.equal u.Bench.outcome.Job.verdict r.Bench.outcome.Job.verdict then None
        else begin
          Printf.eprintf "replay diverged on %s: %S vs %S\n%!" u.Bench.job.Job.key
            u.Bench.outcome.Job.verdict r.Bench.outcome.Job.verdict;
          Some r
        end)
      (List.combine records (Array.to_list replay.Bench.records))
  in
  let recorders = Array.to_list recorders in
  let selfs = Trace.self_totals recorders in
  let self name = Option.value (Hashtbl.find_opt selfs name) ~default:(0.0, 0.0) in
  let counted = Trace.counted recorders in
  let attempted = List.length records in
  let klass k = float_of_int (Bench.count_klass k records) in
  let failed_jobs =
    List.length
      (List.filter
         (fun r -> r.Bench.outcome.Job.klass <> Job.Converted || not (Bench.expected_ok expected r))
         records)
  in
  let lane_cycles = counted "sim.kernel.lane_cycles" in
  let sum = Array.fold_left ( +. ) 0.0 in
  let values =
    List.map (fun s -> (s ^ "_s", fst (self s))) layer_spans
    @ List.map
        (fun (name, _) ->
          match List.assoc_opt name replay.Bench.obs_counts with
          | Some c -> (name, float_of_int c)
          | None -> (name, counted name))
        layer_counts
    @ [ ("sim.kernel.ns_per_lane_cycle",
         if lane_cycles > 0.0 then 1e9 *. fst (self "sim.kernel.run") /. lane_cycles
         else 0.0);
        ("sim.kernel.waves_skipped_share",
         counted "sim.kernel.waves_skipped" /. Float.max 1.0 (counted "sim.kernel.waves"));
        ("jobs.worker_busy_share",
         sum untraced.Bench.busy /. (float_of_int workers *. untraced.Bench.elapsed));
        ("fail.lint", klass Job.Rejected_lint);
        ("fail.equivalence", klass Job.Rejected_equivalence);
        ("fail.exception", klass Job.Raised);
        ("fail.mismatch", float_of_int (List.length bad));
        ("failed_share", float_of_int failed_jobs /. float_of_int attempted);
        ("qor.power_ratio", Bench.power_ratio records);
        ("tracing_overhead", replay.Bench.elapsed /. untraced.Bench.elapsed) ]
    @ List.map (fun s -> (s ^ ".alloc_words", snd (self s))) layer_spans
  in
  List.iter
    (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ())
    [ Filename.dirname trace_dir; trace_dir ];
  let trace_file =
    Filename.concat trace_dir (Printf.sprintf "%s-seed%d.jsonl" w.Workloads.name seed)
  in
  Trace.write_jsonl recorders trace_file;
  let notes =
    [ Printf.sprintf "# %s seed %d: %d jobs on %d client(s), untraced %.3f s, traced %.3f s; spans in %s"
        w.Workloads.name seed attempted workers untraced.Bench.elapsed
        replay.Bench.elapsed trace_file ]
  in
  let failed = List.length bad + List.length diverged in
  print_result ~correct:(failed = 0) ~attempted ~failed ~notes per_layer values

(* --- expected table -------------------------------------------------- *)

(* Run every job of every workload, untraced and replayed, and write the
   verdict table the benchmark checks against. *)
let record path =
  let oc = open_out path in
  let seen = Hashtbl.create 128 in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.setup name) () in
      List.iter
        (fun (job : Job.t) ->
          let plain, _ = Job.run job.Job.plain in
          let tr = Trace.create 0 in
          let replayed, _ = Job.run (fun () -> job.Job.traced tr) in
          if not (String.equal plain.Job.verdict replayed.Job.verdict) then
            failwith ("replay diverged on " ^ job.Job.key);
          Printf.eprintf "%s\t%s\n%!" job.Job.key plain.Job.verdict;
          Printf.fprintf oc "%s\t%s\n" job.Job.key plain.Job.verdict;
          Obs.reset ())
        (* a job a pass repeats is recorded once *)
        (List.filter
           (fun (job : Job.t) ->
             let fresh = not (Hashtbl.mem seen job.Job.key) in
             Hashtbl.replace seen job.Job.key ();
             fresh)
           (List.concat w.Workloads.groups)))
    [ "fleet"; "big"; "power" ];
  close_out oc

(* --- command line ---------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let record_to = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "fleet|big|power");
      ("--seed", Arg.Set_int seed, "N  shuffles the workload's pass");
      ("--seconds", Arg.Set_float seconds, "S  run whole passes until S seconds have passed");
      ("--trace", Arg.Set_int trace, "0|1  1: traced replay, per-layer metrics");
      ("--record", Arg.Set_string record_to, "FILE  write the expected-verdict table and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !record_to <> "" then record !record_to
  else
    match Workloads.setup !workload with
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    | Some make ->
      let expected = Bench.load_expected "perfbench/expected.tsv" in
      if !trace = 0 then measure ~expected ~seed:!seed ~seconds:!seconds make
      else traced ~expected ~seed:!seed make
