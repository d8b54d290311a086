(* The three workloads.  Each [setup] builds one pass of jobs in a fixed
   canonical order from generated or vendored inputs and warms up by
   running a cheap job once; the run seed only reorders the pass (see
   Bench.pass_order), so every run measures the same work and the
   committed expected table covers every seed. *)

type t = {
  name : string;
  groups : Job.t list list;
      (* one pass, canonical order; a group's jobs are submitted
         back to back, in order *)
  workers : int;      (* closed-loop clients *)
  batch : int;        (* jobs between Obs resets; see Bench.run_pass *)
  setup_latch_ratio : (int * int) option;
      (* latches and flip-flops of conversions done during setup *)
}

let library () = Cell_lib.Default_library.library ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let warm_up (job : Job.t) = ignore (Job.run job.Job.plain)

(* --- fleet ----------------------------------------------------------- *)

(* Serving traffic: many small and medium generated designs, 16-400
   flip-flops, drawn once from a fixed universe seed so the expected
   table can cover them, plus the two vendored RTL examples. *)
let fleet_designs = 49

let fleet_spec rng k =
  let module R = Circuits.Rng in
  (* log-uniform register count: as many 16-60 FF designs as 100-400 *)
  let ffs = int_of_float (16.0 *. (25.0 ** R.float rng)) in
  let n_layers = max 1 (min (1 + R.int rng 6) (ffs / 8)) in
  let layers =
    Array.init n_layers (fun l -> (ffs / n_layers) + if l < ffs mod n_layers then 1 else 0)
  in
  { Circuits.Generator.name = Printf.sprintf "fleet%02d" k;
    seed = 5000 + k;
    inputs = 8 + R.int rng 56;
    outputs = 8 + R.int rng 56;
    layers;
    fanin = 2 + R.int rng 4;
    cone_depth = 3 + R.int rng 3;
    self_loop_fraction = 0.7 *. R.float rng;
    cross_feedback = 0.5 *. R.float rng;
    reuse = 0.15 +. (0.2 *. R.float rng);
    gated_fraction = 0.4 *. R.float rng;
    bank_size = 8 + R.int rng 17;
    po_cones = 10 + R.int rng 90;
    frequency_mhz = 1000.0 }

let fleet_specs () =
  let rng = Circuits.Rng.create 20_200 in
  List.init fleet_designs (fleet_spec rng)

(* Every design is submitted at two clock periods, back to back, so
   half the jobs repeat a netlist another job carries at the same time.
   Back to back, the two run side by side on two clients; which designs
   share the machine then does not depend on the seed, and neither does
   peak memory. *)
let fleet () =
  (* two clients wherever there are two cores, so hosts with more cores
     run the same workload *)
  let workers = min 2 (Jobs.default_jobs ()) in
  let library = library () in
  let specs = fleet_specs () in
  let generated =
    List.map
      (fun spec ->
        let text =
          Netlist_io.Verilog.write (Circuits.Generator.synthesize ~library spec)
        in
        ( Circuits.Generator.num_flip_flops spec,
          List.map
            (fun period ->
              Conversion.job
                ~key:(Printf.sprintf "fleet/%s@%gns" spec.Circuits.Generator.name period)
                (Conversion.Netlist { text; period }))
            [ 1.0; 2.0 ] ))
      specs
  in
  let rtl =
    List.map
      (fun name ->
        let file = Printf.sprintf "examples/rtl/%s.sv" name in
        let sv = read_file file in
        let sdc = read_file (Printf.sprintf "examples/rtl/%s.sdc" name) in
        List.map
          (fun scale ->
            Conversion.job
              ~key:(Printf.sprintf "fleet/%s@sdc*%g" name scale)
              (Conversion.Rtl { file; sv; sdc; scale }))
          [ 1.0; 2.0 ])
      [ "mulpipe"; "aesround" ]
  in
  (* warm up on the smallest design, keeping setup cheap *)
  (match List.sort (fun (a, _) (b, _) -> compare a b) generated with
   | (_, job :: _) :: _ -> warm_up job
   | _ -> ());
  { name = "fleet";
    groups = List.map snd generated @ rtl;
    workers;
    batch = 8 * workers;
    setup_latch_ratio = None }

(* --- big ------------------------------------------------------------- *)

(* An sbig-shaped design on which Sta.Smo stops converging at 1 ns: it
   runs to its iteration cap, and lint then rejects the design. *)
let sbig650 =
  { Circuits.Iscas.sbig with
    Circuits.Generator.name = "sbig650";
    layers = [| 217; 217; 216 |] }

let big () =
  let library = library () in
  let job name d period =
    Conversion.job ~key:("big/" ^ name)
      (Conversion.Netlist { text = Netlist_io.Verilog.write d; period })
  in
  let suite name =
    match Circuits.Suite.find name with
    | Some b -> job name (b.Circuits.Suite.build ()) b.Circuits.Suite.period_ns
    | None -> failwith ("unknown suite benchmark " ^ name)
  in
  let riscv = suite "riscv" and s13207 = suite "s13207" and des3 = suite "des3" in
  let sbig = job "sbig650" (Circuits.Generator.synthesize ~library sbig650) 1.0 in
  warm_up des3;
  (* Nine jobs: s13207 runs five times, spread over the pass, and des3
     twice, so the pass's median is the middle one of s13207's five
     runs.  Run once each, the median would be the mean of riscv and
     s13207, two single runs whose sum moves by up to a third from run
     to run.  One group, so the jobs always run in this order: each
     starts on the heap its predecessors grew. *)
  { name = "big";
    groups = [ [ s13207; riscv; s13207; des3; s13207; sbig; s13207; des3; s13207 ] ];
    workers = 1;
    batch = 1;
    setup_latch_ratio = None }

(* --- power ----------------------------------------------------------- *)

(* Workload simulation length of a power job: long runs, so the kernel
   runs far longer than it compiles. *)
let power_cycles = 1024

let power_seed = 2024

(* The steps of Experiments.Runner.power_of, called one by one:
   hold fixing, placement and clock trees, the kernel with one workload
   stream per lane, and the power model. *)
let power_job ~bench ~variant design ~clocks ~workload =
  let period = clocks.Sim.Clock_spec.period in
  let key = Printf.sprintf "power/%s.%s" bench variant in
  let run ?tr () =
    let span name f =
      match tr with Some tr -> Trace.span tr name f | None -> f ()
    in
    let design, hold = span "sta.hold_fix" (fun () -> Sta.Hold_fix.run design ~clocks) in
    let impl = span "physical.implement" (fun () -> Physical.Implement.run design) in
    let kernel = span "sim.kernel.create" (fun () -> Sim.Kernel.create design ~clocks) in
    let streams =
      span "sim.stimulus" (fun () ->
          Array.init (Sim.Kernel.lanes kernel) (fun l ->
              Circuits.Workload.stimulus workload ~seed:(power_seed + l)
                ~cycles:power_cycles design))
    in
    span "sim.kernel.run" (fun () -> Sim.Kernel.run_streams kernel streams);
    let toggles = Sim.Kernel.toggles kernel in
    let lane_cycles = Sim.Kernel.lane_cycles kernel in
    let detail =
      span "power.estimate" (fun () ->
          Power.Estimate.run impl ~activity:(toggles, lane_cycles) ~period)
    in
    Option.iter (fun tr -> Mirror.count_kernel tr kernel ~clocks) tr;
    fun () ->
      let p = detail.Power.Estimate.overall in
      let checksum =
        Job.md5 (String.concat "," (Array.to_list (Array.map string_of_int toggles)))
      in
      { Job.verdict =
          Printf.sprintf
            "power hold=%d lane_cycles=%d toggles=%s clock=%h seq=%h comb=%h"
            hold.Sta.Hold_fix.buffers_added lane_cycles checksum
            p.Power.Estimate.clock p.Power.Estimate.seq p.Power.Estimate.comb;
        klass = Job.Converted;
        ffs = 0;
        latches = 0;
        power = Some (bench, variant, Power.Estimate.total p) }
  in
  { Job.key; plain = (fun () -> run ()); traced = (fun tr -> run ~tr ()) }

let power_benches = [ "s5378"; "des3"; "plasma"; "riscv" ]

(* Setup converts each design to its master-slave and 3-phase variants
   with the config Experiments.Runner uses: lint off, because plasma
   carries real setup violations at its published period.  Setup skips
   the equivalence check: the expected verdicts pin every variant's
   power, so a wrong conversion fails the run anyway. *)
let power () =
  let latches = ref 0 and ffs = ref 0 in
  let jobs =
    List.concat_map
      (fun name ->
        let b = Option.get (Circuits.Suite.find name) in
        let period = b.Circuits.Suite.period_ns in
        let workload = b.Circuits.Suite.workload in
        let original = b.Circuits.Suite.build () in
        let ff_clocks = Phase3.Flow.reference_clocks original ~period in
        let config =
          { (Phase3.Flow.default_config ~period) with
            Phase3.Flow.activity_cycles = 384;
            lint = false;
            verify_equivalence = false }
        in
        let flow = Phase3.Flow.run ~config original in
        let final = flow.Phase3.Flow.final in
        latches := !latches + (Netlist.Stats.compute final).Netlist.Stats.latches;
        ffs := !ffs + (Netlist.Stats.compute original).Netlist.Stats.registers;
        [ power_job ~bench:name ~variant:"ff" original ~clocks:ff_clocks ~workload;
          power_job ~bench:name ~variant:"ms"
            (Phase3.Master_slave.convert original) ~clocks:ff_clocks ~workload;
          power_job ~bench:name ~variant:"3p" final
            ~clocks:(Phase3.Flow.clocks_of config) ~workload ])
      power_benches
  in
  warm_up (List.hd jobs);
  { name = "power"; groups = List.map (fun j -> [ j ]) jobs; workers = 1; batch = 1;
    setup_latch_ratio = Some (!latches, !ffs) }

let setup = function
  | "fleet" -> Some fleet
  | "big" -> Some big
  | "power" -> Some power
  | _ -> None
