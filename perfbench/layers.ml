(* The compiler driven layer by layer, with a span around every call into
   a layer's public function. [simdize] repeats [Driver.simdize] step for
   step; [compare_results] is the faithfulness check that keeps it
   honest against the real driver. *)

open Simd
module Check = Driver.Check

(* Pass-stage labels: the driver reports the prologue value-numbering
   stage under the name "cse" a second time. *)
let stage_labels =
  [
    "hoist_splats"; "memnorm"; "cse"; "predictive_commoning"; "cse_prologue";
    "unroll"; "derive_epilogues"; "finalize_reductions"; "dce"; "vir_cleanup";
  ]

let boundaries = ("placement" :: "generate" :: stage_labels) @ [ "final" ]

let vir_ops (st : Driver.pstate) =
  let c =
    Vir_prog.static_counts_of_stmts
      (st.Driver.st_prologue @ st.Driver.st_body
      @ List.concat st.Driver.st_epilogues)
  in
  Vir_prog.(
    c.loads + c.stores + c.ops + c.splats + c.shifts + c.splices + c.packs
    + c.copies)

(* [simdize ~check config program] — [Driver.simdize ~check config program]
   rebuilt from the layers' public functions. Each layer call is a span;
   each pass stage is timed between successive [run_passes ~on_stage]
   callbacks, with the boundary check run inside the callback excluded. *)
let simdize ~check (config : Driver.config) (program : Ast.program) :
    Driver.result =
  let program, _ = Span.time "Mask.if_convert" (fun () -> Mask.if_convert program) in
  let machine = config.Driver.machine in
  match Span.time "Analysis.check" (fun () -> Analysis.check ~machine program) with
  | Error e -> Driver.Scalar (Driver.Illegal e)
  | Ok analysis -> (
    let program, analysis =
      if config.Driver.reassoc then
        Span.time "passes.reassoc" (fun () ->
            let p = Reassoc.apply_program ~analysis program in
            (p, Analysis.check_exn ~machine p))
      else (program, analysis)
    in
    match
      if config.Driver.peel_baseline then
        match Peel.check analysis with
        | Peel.Applicable -> Ok { config with Driver.policy = Policy.Eager }
        | v -> Error (Driver.Peeling_inapplicable v)
      else Ok config
    with
    | Error r -> Driver.Scalar r
    | Ok config -> (
      let checks = ref [] in
      let seen = Hashtbl.create 64 in
      let normalized = ref false in
      let record_check name (r : Check.result) =
        let fresh =
          List.filter
            (fun (v : Check.violation) ->
              if Hashtbl.mem seen v then false
              else begin
                Hashtbl.add seen v ();
                true
              end)
            r.Check.violations
        in
        checks := (name, { r with Check.violations = fresh }) :: !checks
      in
      let body = program.Ast.loop.Ast.body in
      (* Placement plus shared-stream detection: one span per program. *)
      let placed, shared =
        let place () =
          let placed =
            match config.Driver.policy with
            | Policy.Joint -> Opt.Joint.place_body ~analysis body
            | _ ->
              List.map
                (fun stmt ->
                  let p =
                    Opt.Place.place_with_fallback config.Driver.policy
                      ~analysis stmt
                  in
                  (stmt, p.Opt.Place.graph, p.Opt.Place.used))
                body
          in
          let graphs = List.map (fun (s, g, _) -> (s, g)) placed in
          (placed, Opt.Joint.shared_streams ~analysis (List.map snd graphs))
        in
        match config.Driver.policy with
        | Policy.Joint -> Span.time "Opt.Joint" place
        | _ -> Span.time "Opt.Place" place
      in
      let graphs = List.map (fun (s, g, _) -> (s, g)) placed in
      if check then
        record_check "placement"
          (Span.time "check.placement" (fun () ->
               Check.check_graphs ~analysis graphs));
      let policies_used = List.map (fun (_, _, p) -> p) placed in
      let mode =
        match config.Driver.reuse with
        | Driver.Software_pipelining -> Gen.Pipelined
        | Driver.No_reuse | Driver.Predictive_commoning -> Gen.Standard
      in
      let names = Names.create () in
      match
        Span.time "Gen.generate" (fun () ->
            Gen.generate ~analysis ~names ~mode graphs)
      with
      | Error (Gen.Trip_too_small { trip; needed }) ->
        Driver.Scalar (Driver.Trip_too_small { trip; needed })
      | Error (Gen.Unsupported_shift msg) ->
        invalid_arg ("Driver.simdize: unexpected shift failure: " ^ msg)
      | Ok prog ->
        if check then
          record_check "generate"
            (Span.time "check.generate" (fun () ->
                 Check.check_regions ~analysis ~prologue:prog.Vir_prog.prologue
                   ~body:prog.Vir_prog.body ~epilogues:[] ()));
        let last_body = ref prog.Vir_prog.body in
        let cse_seen = ref false in
        let mark = ref (Span.now_ns ()) in
        let on_stage ~name (st : Driver.pstate) =
          let label =
            if name = "cse" then
              if !cse_seen then "cse_prologue"
              else begin
                cse_seen := true;
                "cse"
              end
            else name
          in
          Span.record ("passes." ^ label) (Span.ms_since !mark);
          if !Span.counting then Span.add ("passes." ^ label ^ ".vir_ops") (vir_ops st);
          if check then
            Span.time ("check." ^ label) (fun () ->
                if name = "memnorm" then normalized := config.Driver.memnorm;
                if name = "unroll" && config.Driver.unroll > 1 then
                  record_check name
                    (Check.check_unroll ~analysis ~factor:config.Driver.unroll
                       ~pre:!last_body ~post:st.Driver.st_body);
                record_check name
                  (Check.check_regions ~analysis ~loads_normalized:!normalized
                     ~prologue:st.Driver.st_prologue ~body:st.Driver.st_body
                     ~epilogues:st.Driver.st_epilogues ());
                last_body := st.Driver.st_body);
          mark := Span.now_ns ()
        in
        let prog = Driver.run_passes ~on_stage config ~analysis prog in
        if check then begin
          let peel_amount =
            if config.Driver.peel_baseline then
              match Peel.check analysis with
              | Peel.Applicable -> Some (Peel.peel_amount analysis)
              | Peel.Mixed_alignments | Peel.Runtime_alignment -> None
            else None
          in
          record_check "final"
            (Span.time "check.final" (fun () ->
                 Check.check_prog ?peel_amount ~loads_normalized:!normalized
                   ~analysis prog))
        end;
        Driver.Simdized
          {
            Driver.prog;
            analysis;
            graphs;
            policies_used;
            shared_streams = shared;
            config;
            checks = List.rev !checks;
          }))

(* ------------------------------------------------------------------ *)
(* Faithfulness                                                        *)
(* ------------------------------------------------------------------ *)

let reason_text r = Format.asprintf "%a" Driver.pp_reason r

let violations_text o =
  List.map
    (fun (b, v) -> b ^ ": " ^ Check.violation_to_string v)
    (Driver.check_violations o)

(* Why two compilations differ, or [None] when they agree on the final
   VIR text, the boundary list, every violation and the discharged
   facts. *)
let compare_results (hand : (Driver.result, string) result)
    (real : (Driver.result, string) result) =
  match (hand, real) with
  | Error a, Error b -> if a = b then None else Some ("exceptions differ: " ^ a ^ " / " ^ b)
  | Error a, Ok _ -> Some ("hand-driven compile raised " ^ a)
  | Ok _, Error b -> Some ("Driver.simdize raised " ^ b)
  | Ok (Driver.Scalar a), Ok (Driver.Scalar b) ->
    if reason_text a = reason_text b then None
    else Some ("scalar reasons differ: " ^ reason_text a ^ " / " ^ reason_text b)
  | Ok (Driver.Simdized a), Ok (Driver.Simdized b) ->
    if Vir_prog.to_string a.Driver.prog <> Vir_prog.to_string b.Driver.prog then
      Some "final VIR text differs"
    else if List.map fst a.Driver.checks <> List.map fst b.Driver.checks then
      Some "check boundaries differ"
    else if violations_text a <> violations_text b then
      Some "check violations differ"
    else if Driver.check_facts a <> Driver.check_facts b then
      Some "check facts differ"
    else None
  | Ok _, Ok _ -> Some "one compile simdized, the other stayed scalar"

let guard f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* The simulator and the oracle, driven by hand                        *)
(* ------------------------------------------------------------------ *)

let sim_prepare ?trip ~seed (config : Driver.config) program =
  Span.time "Sim_run.prepare" (fun () ->
      Sim_run.prepare ~seed ?trip ~machine:config.Driver.machine program)

let dyn_ops (c : Exec.counts) =
  Exec.(c.vloads + c.vstores + c.vops + c.vsplats + c.vshifts + c.vsplices + c.vpacks)

(* Both executions on identical memory; whole-arena equality, as
   [Sim_run.verify] requires. *)
let differential setup (prog : Vir_prog.t) =
  let _, scalar_mem = Span.time "Sim_run.run_scalar" (fun () -> Sim_run.run_scalar setup) in
  let simd = Span.time "Sim_run.run_simd" (fun () -> Sim_run.run_simd setup prog) in
  let size = Mem.size scalar_mem in
  Mem.equal_region scalar_mem simd.Sim_run.final_mem ~addr:0 ~len:size

(* [Fuzz.Oracle.run] by hand: the checked compile's first error-severity
   violation, else the unchecked compile run differentially. Only the
   outcome class is meant to match the real oracle. *)
let oracle (c : Fuzz.Case.t) : Fuzz.Oracle.outcome =
  let static =
    match simdize ~check:true c.Fuzz.Case.config c.Fuzz.Case.program with
    | Driver.Scalar _ -> None
    | Driver.Simdized o -> (
      match
        List.filter
          (fun (_, (v : Check.violation)) -> v.Check.severity = Check.Error)
          (Driver.check_violations o)
      with
      | [] -> None
      | (b, v) :: _ -> Some (b ^ ": " ^ Check.violation_to_string v))
    | exception _ -> None
  in
  match static with
  | Some m -> Fuzz.Oracle.Static_violation m
  | None -> (
    match simdize ~check:false c.Fuzz.Case.config c.Fuzz.Case.program with
    | Driver.Scalar r -> Fuzz.Oracle.Skipped ("not simdized: " ^ reason_text r)
    | Driver.Simdized o ->
      let setup =
        sim_prepare ?trip:c.Fuzz.Case.trip ~seed:c.Fuzz.Case.setup_seed
          c.Fuzz.Case.config c.Fuzz.Case.program
      in
      if differential setup o.Driver.prog then Fuzz.Oracle.Pass
      else Fuzz.Oracle.Divergence "arenas differ"
    | exception e -> Fuzz.Oracle.Crash (Printexc.to_string e))

(* [Measure.run] by hand; [None] when the loop stays scalar. *)
let measure ~(config : Driver.config) program : Measure.sample option =
  match simdize ~check:false config program with
  | Driver.Scalar _ -> None
  | Driver.Simdized o ->
    let setup = sim_prepare ~seed:0x5EED o.Driver.config program in
    let scalar, _ =
      Span.time "Sim_run.run_scalar" (fun () -> Sim_run.run_scalar setup)
    in
    let r =
      Span.time "Sim_run.run_simd" (fun () -> Sim_run.run_simd setup o.Driver.prog)
    in
    let lb_policy =
      if List.for_all (fun p -> p = Policy.Zero) o.Driver.policies_used then
        Policy.Zero
      else o.Driver.config.Driver.policy
    in
    Some
      {
        Measure.program;
        config = o.Driver.config;
        counts = r.Sim_run.counts;
        scalar;
        lb = Lb.compute ~analysis:o.Driver.analysis ~policy:lb_policy;
        data = List.length program.Ast.loop.Ast.body * setup.Sim_run.trip;
        policies_used = o.Driver.policies_used;
        fallback = r.Sim_run.fallback_counts <> None;
      }

(* ------------------------------------------------------------------ *)
(* The compile service's path, driven by hand                          *)
(* ------------------------------------------------------------------ *)

module Compile = Serve.Compile
module Protocol = Serve.Protocol

let emit_backend = function
  | Protocol.Vir -> None
  | Protocol.C -> Some Backend.Portable
  | Protocol.Altivec -> Some Backend.Altivec
  | Protocol.Sse -> Some Backend.Sse
  | Protocol.Avx2 -> Some Backend.Avx2
  | Protocol.Neon -> Some Backend.Neon

(* One span per call across backends, and one per backend. *)
let unit_for b prog =
  Span.time "Backend.unit_for" (fun () ->
      Span.time ("Backend.unit_for." ^ Backend.name b) (fun () ->
          Backend.unit_for b prog))

let check_json (o : Driver.outcome) =
  let violation_json (boundary, v) =
    let fields =
      match Check.violation_to_json v with
      | Json.Obj fields -> fields
      | j -> [ ("violation", j) ]
    in
    Json.Obj (("boundary", Json.String boundary) :: fields)
  in
  let violations = Driver.check_violations o in
  let ok =
    not
      (List.exists
         (fun (_, (v : Check.violation)) -> v.Check.severity = Check.Error)
         violations)
  in
  ( ok,
    Json.Obj
      [
        ("ok", Json.Bool ok);
        ("violations", Json.List (List.map violation_json violations));
        ("facts", Check.facts_to_json (Driver.check_facts o));
      ] )

(* [Compile.run] by hand. The serve workloads compare every response
   built from it with the real server's, byte for byte. *)
let compile_run (r : Protocol.request) : Compile.outcome =
  Span.time "Compile.run" (fun () ->
      match
        Span.time "Parse.program_of_string" (fun () ->
            Parse.program_of_string_result r.Protocol.source)
      with
      | Error m -> Compile.Invalid m
      | exception e -> Compile.Invalid (Printexc.to_string e)
      | Ok program -> (
        match simdize ~check:true r.Protocol.config program with
        | Driver.Scalar reason -> Compile.Scalar (reason_text reason)
        | Driver.Simdized o ->
          let check_ok, check = check_json o in
          let emit e =
            let prog = o.Driver.prog in
            let out =
              match emit_backend e with
              | None -> Compile.Text (Vir_prog.to_string prog)
              | Some b ->
                let vl = Machine.vector_len prog.Vir_prog.machine in
                if Backend.supports_vl b vl then Compile.Text (unit_for b prog)
                else
                  Compile.Skipped
                    (Printf.sprintf "backend %s requires V = %d, compiled at V = %d"
                       (Backend.name b) (Backend.default_vl b) vl)
            in
            (Protocol.emit_name e, out)
          in
          let report =
            Opt.Report.to_json (Span.time "Driver.report" (fun () -> Driver.report o))
          in
          let lint =
            Span.time "Lint.run" (fun () -> Lint.report_to_json (Lint.run o))
          in
          Compile.Artifact
            {
              Compile.policy = Policy.name r.Protocol.config.Driver.policy;
              policies_used = List.map Policy.name o.Driver.policies_used;
              shared_streams = List.length o.Driver.shared_streams;
              outputs = List.map emit r.Protocol.emits;
              report;
              check_ok;
              check;
              lint;
            }
        | exception e -> Compile.Invalid ("compile: " ^ Printexc.to_string e)))

(* The server's response to one compile line, by hand: protocol parse,
   cache key, store lookup, compile and store on a miss, then the id
   spliced into the cached payload exactly as the server does. *)
let serve_line cas line =
  match Span.time "Protocol.parse_line" (fun () -> Protocol.parse_line line) with
  | Protocol.Compile req ->
    let key = Span.time "Compile.cache_key" (fun () -> Compile.cache_key req) in
    let payload =
      match Span.time "Cas.find" (fun () -> Cas.find cas ~key) with
      | Some payload -> payload
      | None ->
        let payload = Json.to_line (Compile.outcome_to_json (compile_run req)) in
        Span.time "Cas.store" (fun () -> Cas.store cas ~key payload);
        payload
    in
    Printf.sprintf "{\"id\":%s,%s"
      (Json.to_line (Json.String req.Protocol.id))
      (String.sub payload 1 (String.length payload - 1))
  | _ -> failwith ("not a compile request: " ^ line)
