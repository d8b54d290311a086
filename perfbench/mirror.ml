(* The traced replay of Phase3.Flow.run: the same stages, in the same
   order, with the same config, called one by one through each layer's
   public functions so every call can be bracketed by a span.  Keep this
   in step with lib/phase3/flow.ml; the benchmark fails any job whose
   replayed verdict differs from Flow.run's. *)

module Flow = Phase3.Flow

let fail fmt = Format.kasprintf (fun s -> raise (Flow.Flow_error s)) fmt

(* Settle waves the kernel runs: two while creating, then one per clock
   event of a period plus one for the input change, every cycle. *)
let settle_waves kernel ~clocks =
  2
  + Sim.Kernel.cycles kernel
    * (List.length (Sim.Clock_spec.events clocks) + 1)

let count_kernel tr kernel ~clocks =
  Trace.count tr "sim.kernel.lane_cycles"
    (float_of_int (Sim.Kernel.lane_cycles kernel));
  Trace.count tr "sim.kernel.waves"
    (float_of_int (settle_waves kernel ~clocks));
  Trace.count tr "sim.kernel.waves_skipped"
    (float_of_int (Sim.Kernel.stats kernel).Sim.Kernel.stat_waves_skipped)

(* One Monte-Carlo kernel run: compile, build one stream per lane, run. *)
let kernel_run tr design ~clocks ~stream =
  let sp name f = Trace.span tr name f in
  let kernel = sp "sim.kernel.create" (fun () -> Sim.Kernel.create design ~clocks) in
  let streams =
    sp "sim.stimulus" (fun () -> Array.init (Sim.Kernel.lanes kernel) stream)
  in
  sp "sim.kernel.run" (fun () -> Sim.Kernel.run_streams kernel streams);
  count_kernel tr kernel ~clocks;
  kernel

let validate what d =
  match Netlist.Check.validate d with
  | Ok () -> ()
  | Error errors -> what (String.concat "; " errors)

let flow tr ~(config : Flow.config) d =
  let sp name f = Trace.span tr name f in
  sp "netlist.validate" (fun () ->
      validate
        (fail "input design %s is invalid: %s" d.Netlist.Design.design_name)
        d);
  let assignment =
    sp "phase3.assign" (fun () ->
        let a =
          Phase3.Assignment.solve ~solver:config.Flow.solver
            ~node_budget:config.Flow.node_budget d
        in
        (match Phase3.Assignment.validate d a with
         | [] -> ()
         | issues -> fail "assignment invalid: %s" (String.concat "; " issues));
        a)
  in
  Trace.count tr "phase3.inserted_latches"
    (float_of_int assignment.Phase3.Assignment.inserted_latches);
  let converted =
    sp "phase3.convert" (fun () ->
        Phase3.Convert.to_three_phase ~ports:config.Flow.ports d assignment)
  in
  sp "netlist.validate" (fun () ->
      validate (fail "converted design invalid: %s") converted);
  let retimed =
    if config.Flow.retime then
      sp "phase3.retime" (fun () -> fst (Phase3.Retime.run converted))
    else converted
  in
  let clocks = Flow.clocks_of config in
  let cg = config.Flow.clock_gating in
  let final =
    if cg.Phase3.Clock_gating.common_enable || cg.Phase3.Clock_gating.ddcg
       || cg.Phase3.Clock_gating.m2_latch_removal
    then
      sp "phase3.clock_gating" (fun () ->
          let inputs = Sim.Stimulus.inputs_of retimed in
          let kernel =
            kernel_run tr retimed ~clocks ~stream:(fun l ->
                Sim.Stimulus.random ~seed:(config.Flow.activity_seed + l)
                  ~cycles:config.Flow.activity_cycles ~toggle_probability:0.25
                  inputs)
          in
          let activity =
            (Sim.Kernel.toggles kernel, Sim.Kernel.lane_cycles kernel)
          in
          fst
            (Phase3.Clock_gating.run ~options:cg ~ports:config.Flow.ports
               ~activity retimed))
    else retimed
  in
  let final =
    if config.Flow.optimize then
      sp "netlist.optimize" (fun () -> fst (Netlist.Optimize.run final))
    else final
  in
  sp "netlist.validate" (fun () ->
      validate (fail "final design invalid: %s") final);
  let timing = sp "sta.smo" (fun () -> Sta.Smo.check final ~clocks) in
  let iterations = timing.Sta.Smo.iterations in
  Trace.count tr "sta.smo.iterations" (float_of_int iterations);
  (* Smo gives up after one sweep per register plus eight; every register
     of a converted design is clocked by a phase port, so it checks them
     all *)
  let registers = (Netlist.Stats.compute final).Netlist.Stats.registers in
  if iterations > registers + 8 then Trace.count tr "sta.smo.nonconverged" 1.0;
  let lint =
    if config.Flow.lint then begin
      let report = sp "lint.run" (fun () -> Lint.Engine.run final ~clocks) in
      Trace.count tr "lint.errors" (float_of_int report.Lint.Engine.errors);
      if not (Lint.Engine.ok report) then begin
        let firsts =
          List.filteri
            (fun i _ -> i < 3)
            (List.filter Lint_core.Diagnostic.is_error
               report.Lint.Engine.diagnostics)
        in
        fail "converted design fails lint with %d error(s): %s"
          report.Lint.Engine.errors
          (String.concat "; " (List.map Lint_core.Diagnostic.to_string firsts))
      end;
      Some report
    end
    else None
  in
  let equivalence =
    if config.Flow.verify_equivalence then
      sp "sim.equivalence" (fun () ->
          let stim =
            sp "sim.stimulus" (fun () ->
                Sim.Stimulus.random ~seed:(config.Flow.activity_seed + 17)
                  ~cycles:config.Flow.verify_cycles ~toggle_probability:0.35
                  (Sim.Stimulus.inputs_of d))
          in
          let verdict =
            Sim.Equivalence.check ~reference:d ~dut:final
              ~reference_clocks:(Flow.reference_clocks d ~period:config.Flow.period)
              ~dut_clocks:clocks ~stimulus:stim ()
          in
          (match verdict with
           | Sim.Equivalence.Equivalent _ -> ()
           | Sim.Equivalence.Mismatch m ->
             fail "3-phase design is not stream-equivalent: %a"
               Sim.Equivalence.pp_mismatch m);
          Some verdict)
    else None
  in
  (final, equivalence, lint)
