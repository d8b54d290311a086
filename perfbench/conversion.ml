(* A conversion job as a client submits it: netlist text and a clock
   period in; parse -> Phase3.Flow.run (default config) -> Verilog.write. *)

type source =
  | Netlist of { text : string; period : float }
      (** flat structural Verilog at a given period (ns) *)
  | Rtl of { file : string; sv : string; sdc : string; scale : float }
      (** SystemVerilog plus its SDC; the period is the SDC clock
          period times [scale] *)

let bytes = function
  | Netlist { text; _ } -> String.length text
  | Rtl { sv; sdc; _ } -> String.length sv + String.length sdc

(* [tr] is the recorder of a traced replay; each parsing layer gets a span. *)
let parse ?tr source =
  let span name f =
    match tr with Some tr -> Trace.span tr name f | None -> f ()
  in
  let library = Cell_lib.Default_library.library () in
  match source with
  | Netlist { text; period } ->
    (span "netlist_io.parse" (fun () -> Netlist_io.Verilog.parse ~library text),
     period)
  | Rtl { file; sv; sdc; scale } ->
    let constraints =
      span "netlist_io.parse" (fun () -> Netlist_io.Sdc.parse ~file sdc)
    in
    let period =
      match Netlist_io.Sdc.period constraints with
      | Some p -> p *. scale
      | None -> failwith (file ^ ": constraints define no clock period")
    in
    (span "elab.read" (fun () -> Elab.Elaborate.read ~file ~library sv), period)

let job ~key source =
  let plain () =
    let d, period = parse source in
    let r = Phase3.Flow.run ~config:(Phase3.Flow.default_config ~period) d in
    let verilog = Netlist_io.Verilog.write r.Phase3.Flow.final in
    Job.converted ~original:d ~final:r.Phase3.Flow.final ~verilog
      ~equivalence:r.Phase3.Flow.equivalence ~lint:r.Phase3.Flow.lint
  in
  let traced tr =
    let d, period = parse ~tr source in
    let final, equivalence, lint =
      Mirror.flow tr ~config:(Phase3.Flow.default_config ~period) d
    in
    let verilog =
      Trace.span tr "netlist_io.write" (fun () -> Netlist_io.Verilog.write final)
    in
    Trace.count tr "netlist_io.bytes"
      (float_of_int (bytes source + String.length verilog));
    Job.converted ~original:d ~final ~verilog ~equivalence ~lint
  in
  { Job.key; plain; traced }
