(* Determinism self-test of the benchmark, run from the repository root:

     dune exec perfbench/selftest.exe

   The same seed run twice, and on one client against the default client
   count, must give identical verdicts, qor values and outcome counts;
   a held-out seed must match the committed expected table throughout. *)

let seed = 1
let held_out_seed = 7919

type summary = {
  verdicts : (string * string) list;  (* sorted by job key *)
  counts : (string * int) list;       (* outcomes per class *)
  latch_ratio : float;
  power_ratio : float;
}

let summarize w (p : Bench.pass) =
  let records = Array.to_list p.Bench.records in
  { verdicts =
      List.sort compare
        (List.map (fun r -> (r.Bench.job.Job.key, r.Bench.outcome.Job.verdict)) records);
    counts =
      List.map
        (fun k -> (Job.klass_name k, Bench.count_klass k records))
        [ Job.Converted; Job.Rejected_lint; Job.Rejected_equivalence; Job.Raised ];
    latch_ratio = Bench.latch_ratio w records;
    power_ratio = Bench.power_ratio records }

let pass (w : Workloads.t) ~seed ~workers =
  Jobs.with_pool ~jobs:workers (fun pool ->
      Bench.run_pass pool ~batch:w.Workloads.batch (Bench.pass_order ~seed w)
        ~exec:Bench.plain_exec)

let failures = ref 0

let check what ok =
  Printf.printf "%-50s %s\n%!" what (if ok then "ok" else "FAILED");
  if not ok then incr failures

let same what a b =
  check (what ^ ": verdicts") (a.verdicts = b.verdicts);
  check (what ^ ": outcome counts") (a.counts = b.counts);
  check (what ^ ": qor.latch_ratio") (Float.equal a.latch_ratio b.latch_ratio);
  check (what ^ ": qor.power_ratio") (Float.equal a.power_ratio b.power_ratio)

let clean expected what (p : Bench.pass) =
  check (what ^ ": matches the expected table")
    (Bench.mismatches expected (Array.to_list p.Bench.records) = [])

let () =
  let expected = Bench.load_expected "perfbench/expected.tsv" in
  let nproc = max 2 (Jobs.default_jobs ()) in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.setup name) () in
      (* fleet is the workload with several clients *)
      let w = if name = "fleet" then { w with Workloads.workers = nproc } else w in
      let run ~seed ~workers = pass w ~seed ~workers in
      let first = run ~seed ~workers:w.Workloads.workers in
      clean expected (name ^ " seed 1") first;
      let first = summarize w first in
      (* big's pass takes 25-50 s and the seed does not reorder it, so
         the held-out seed's pass doubles as its repeat run *)
      if name <> "big" then
        same (name ^ " seed 1, run twice") first
          (summarize w (run ~seed ~workers:w.Workloads.workers));
      if w.Workloads.workers > 1 then
        same (Printf.sprintf "%s seed 1, 1 vs %d clients" name w.Workloads.workers)
          first (summarize w (run ~seed ~workers:1));
      let held_out = run ~seed:held_out_seed ~workers:w.Workloads.workers in
      let what = Printf.sprintf "%s held-out seed %d" name held_out_seed in
      clean expected what held_out;
      same what first (summarize w held_out))
    [ "fleet"; "power"; "big" ];
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
