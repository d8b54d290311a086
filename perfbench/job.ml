(* A benchmark job and the verdict it is checked by. *)

type klass = Converted | Rejected_lint | Rejected_equivalence | Raised

type outcome = {
  verdict : string;  (* compared with the committed expected table *)
  klass : klass;
  ffs : int;         (* registers of the input design, converted jobs *)
  latches : int;     (* latches of the output design, converted jobs *)
  power : (string * string * float) option;
      (* power jobs: design, variant, total power in mW *)
}

(* The timed part of a job returns a thunk that builds the outcome, so
   digests and statistics are computed after the job's clock stops. *)
type t = {
  key : string;  (* "<workload>/<job>", the expected table's key *)
  plain : unit -> unit -> outcome;
  traced : Trace.t -> unit -> outcome;
}

let klass_name = function
  | Converted -> "converted"
  | Rejected_lint -> "lint"
  | Rejected_equivalence -> "equivalence"
  | Raised -> "exception"

let md5 s = Digest.to_hex (Digest.string s)

(* Phase3.Flow reports its rejections as Flow_error messages; the
   prefixes are the ones Flow.run (and Mirror) format. *)
let of_exn e =
  let klass, msg =
    match e with
    | Phase3.Flow.Flow_error m
      when String.starts_with ~prefix:"converted design fails lint" m ->
      (Rejected_lint, m)
    | Phase3.Flow.Flow_error m
      when String.starts_with ~prefix:"3-phase design is not stream-equivalent" m ->
      (Rejected_equivalence, m)
    | e -> (Raised, Printexc.to_string e)
  in
  { verdict = Printf.sprintf "rejected %s %s" (klass_name klass) (md5 msg);
    klass; ffs = 0; latches = 0; power = None }

(* Verdict of a finished conversion: the written Verilog, the
   equivalence verdict and the lint verdict. *)
let converted ~(original : Netlist.Design.t) ~(final : Netlist.Design.t)
    ~verilog ~equivalence ~lint () =
  let equiv =
    match equivalence with
    | Some (Sim.Equivalence.Equivalent { shift }) -> Printf.sprintf "shift%d" shift
    | Some (Sim.Equivalence.Mismatch _) -> "mismatch"
    | None -> "off"
  in
  let lint =
    match lint with
    | Some r ->
      Printf.sprintf "%d/%d/%d" r.Lint.Engine.errors r.Lint.Engine.warnings
        r.Lint.Engine.infos
    | None -> "off"
  in
  let latches = (Netlist.Stats.compute final).Netlist.Stats.latches in
  { verdict =
      Printf.sprintf "converted latches=%d verilog=%s equivalence=%s lint=%s"
        latches (md5 verilog) equiv lint;
    klass = Converted;
    ffs = (Netlist.Stats.compute original).Netlist.Stats.registers;
    latches;
    power = None }

(* [run f] times [f]; exceptions become rejection verdicts. *)
let run f =
  let t0 = Unix.gettimeofday () in
  let finish = try f () with e -> fun () -> of_exn e in
  let latency = Unix.gettimeofday () -. t0 in
  (finish (), latency)
