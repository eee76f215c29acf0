(* The traced run: per-layer numbers for one workload.

   1. Untraced: the workload's ops in this process, spans off.
   2. Traced: the same ops with the layers driven by hand ({!Layers}),
      a span around every layer call. Phases 1 and 2 alternate op by op;
      their rates give the tracing overhead.
   3. Walk: every input once through every layer, which also proves the
      hand-driven path faithful: its final VIR, check boundaries,
      violations and facts must equal [Driver.simdize]'s, and its served
      responses the real server's. A mismatch fails the run and names
      the input.

   Counters are taken in the walk only, so they are exact for a seed. *)

open Simd
open Workloads

let mismatches = ref 0
let oracle_failures = ref 0

let mismatch label why =
  incr mismatches;
  if !mismatches <= 5 then
    Printf.eprintf "perfbench: faithfulness check failed on %s: %s\n%!" label why

type phase = { ops : int; busy_s : float }

let ops_per_s p = if p.busy_s > 0. then float_of_int p.ops /. p.busy_s else 0.

let fresh_cas () = Cas.create ~dir:(Serve_client.fresh "c") ()

(* Reference slices for the whole traced run: its times are scaled like
   the end-to-end ones (see {!Speed}). *)
let speed = Speed.create ()
let last_slice = ref 0L

let pace () =
  if Span.s_since !last_slice >= Speed.period_s then begin
    Speed.slice speed;
    last_slice := Span.now_ns ()
  end

(* Phases 1 and 2 interleaved, so both run the same ops under the same
   machine conditions: op [i] untraced, then op [i] traced, until
   [seconds] have passed. Each side's rate is over its own busy time. *)
let paired ~seconds untraced traced =
  let tu = ref 0L and tt = ref 0L and n = ref 0 in
  let budget = Int64.of_float (seconds *. 1e9) in
  last_slice := Span.now_ns ();
  while Int64.add !tu !tt < budget do
    let a = Span.now_ns () in
    Span.enabled := false;
    untraced !n;
    Span.enabled := true;
    let b = Span.now_ns () in
    traced !n;
    let c = Span.now_ns () in
    tu := Int64.add !tu (Int64.sub b a);
    tt := Int64.add !tt (Int64.sub c b);
    incr n;
    pace ()
  done;
  let phase t = { ops = !n; busy_s = Int64.to_float t /. 1e9 } in
  (phase !tu, phase !tt)

let spans_off f =
  Span.enabled := false;
  Fun.protect ~finally:(fun () -> Span.enabled := true) f

(* ------------------------------------------------------------------ *)
(* Phases 1 and 2 per workload                                         *)
(* ------------------------------------------------------------------ *)

(* Oracle classes seen by the traced loop, compared with the real
   oracle's in the walk. *)
let traced_classes : (int, Fuzz.Oracle.outcome) Hashtbl.t = Hashtbl.create 64

let fuzz_phases ~seconds cases =
  let failed = ref 0 in
  let first = Array.make (Array.length cases) None in
  let n = Array.length cases in
  let untraced, traced =
    paired ~seconds (fuzz_op cases first failed) (fun i ->
        let k = i mod n in
        let o = Layers.oracle cases.(k) in
        if not (Hashtbl.mem traced_classes k) then Hashtbl.add traced_classes k o)
  in
  (untraced, traced, !failed)

let paper_phases ~seconds inputs =
  let n = Array.length inputs in
  let st = paper_state n in
  let failed = ref 0 in
  let untraced, traced =
    paired ~seconds (paper_op inputs st failed) (fun i ->
        let k = i mod n in
        match Layers.measure ~config:inputs.(k).config inputs.(k).program with
        | Some s ->
          if Measure.opd s <> st.opd.(k) then
            mismatch inputs.(k).label "hand-driven OPD differs from Measure.run"
        | None ->
          if not st.scalar.(k) then
            mismatch inputs.(k).label "hand-driven compile stayed scalar")
  in
  (untraced, traced, !failed)

(* The serve workloads in process, both sides through
   {!Layers.serve_line}, each with its own store: [Server.handle_batch]
   would add the server's own bookkeeping to one side only, so the ratio
   would not be the tracing overhead (it is timed in the walk instead).
   serve-cold takes every request once per round in seeded order, with
   empty stores at the start of each round; serve-hot warms both stores,
   then draws requests by seed. *)
let serve_phases ~hot ~seed ~seconds expected =
  let n = Array.length expected in
  let order = shuffled ~seed n in
  let prng = Prng.create ~seed in
  let failed = ref 0 in
  let plain = ref (fresh_cas ()) and spanned = ref (fresh_cas ()) in
  if hot then
    spans_off (fun () ->
        Array.iter
          (fun (l, _, _) ->
            ignore (Layers.serve_line !plain l);
            ignore (Layers.serve_line !spanned l))
          expected);
  let current = ref 0 in
  let respond cas idx =
    let l, _, _ = expected.(idx) in
    check_response expected failed idx (Layers.serve_line cas l)
  in
  let untraced i =
    current := if hot then Prng.int prng ~bound:n else order.(i mod n);
    if (not hot) && i mod n = 0 then begin
      plain := fresh_cas ();
      spanned := fresh_cas ()
    end;
    respond !plain !current
  in
  let traced _ = respond !spanned !current in
  let untraced, traced = paired ~seconds untraced traced in
  (* the walk's in-process server: warm for serve-hot, compiling otherwise *)
  let server =
    if hot then begin
      let s = Server.create ~jobs:1 ~cache:(fresh_cas ()) () in
      spans_off (fun () ->
          Array.iter (fun (l, _, _) -> ignore (Server.handle_batch s [ l ])) expected);
      s
    end
    else Server.create ~jobs:1 ()
  in
  (untraced, traced, !failed, server)

(* ------------------------------------------------------------------ *)
(* Phase 3: the walk                                                   *)
(* ------------------------------------------------------------------ *)

let skip_bucket m =
  let has sub =
    let n = String.length sub and l = String.length m in
    let rec at i = i + n <= l && (String.sub m i n = sub || at (i + 1)) in
    at 0
  in
  if has "too small" then "trip_too_small"
  else if has "not simdizable" then "illegal"
  else if has "peeling" then "peeling"
  else "other"

let facts_total (f : Check.facts) =
  Check.(f.ops_proved + f.stores_proved + f.shifts_proved + f.seams_proved)

let walk ~workload ~seed ~server inputs =
  Span.counting := true;
  let prng = Prng.create ~seed in
  let cas = fresh_cas () in
  let child = Serve_client.start ~clients:1 in
  let wire = ref [] in
  Fun.protect
    ~finally:(fun () -> ignore (Serve_client.stop child))
    (fun () ->
      let hot = workload = "serve-hot" in
      let lines = Array.mapi (fun k i -> Protocol.request_to_line (request_of k i)) inputs in
      (* the child serves each line the way the workload's server would:
         from a warm cache for serve-hot, by compiling otherwise *)
      if hot then
        Serve_client.closed_loop child
          ~next:(let k = ref 0 in
                 fun () ->
                   if !k >= Array.length lines then None
                   else (incr k; Some (!k - 1, lines.(!k - 1))))
          ~on_response:(fun _ _ _ -> ());
      Array.iteri
        (fun k inp ->
          Span.add "faithful.inputs" 1;
          if workload <> "fuzz" then
            ignore
              (Span.time "Genloop.gen_case" (fun () -> Fuzz.Genloop.gen_case prng));
          let cfg = inp.config and prog = inp.program in
          let real_u =
            Span.time "Driver.simdize" (fun () ->
                Layers.guard (fun () -> Driver.simdize cfg prog))
          in
          let real_c =
            Span.time "Driver.simdize_checked" (fun () ->
                Layers.guard (fun () -> Driver.simdize ~check:true cfg prog))
          in
          let hand_u = Layers.guard (fun () -> Layers.simdize ~check:false cfg prog) in
          let hand_c = Layers.guard (fun () -> Layers.simdize ~check:true cfg prog) in
          Option.iter (mismatch inp.label)
            (Layers.compare_results hand_u real_u);
          Option.iter (mismatch inp.label)
            (Layers.compare_results hand_c real_c);
          (* the oracle's verdict on this input *)
          let o = Fuzz.Oracle.run (case_of_input inp) in
          Span.add ("oracle.outcome." ^ Fuzz.Oracle.outcome_name o) 1;
          (match o with
          | Fuzz.Oracle.Skipped m -> Span.add ("oracle.skip." ^ skip_bucket m) 1
          | o when Fuzz.Oracle.is_failure o ->
            incr oracle_failures;
            complain "%s: %s" inp.label (Format.asprintf "%a" Fuzz.Oracle.pp_outcome o)
          | _ -> ());
          (match Hashtbl.find_opt traced_classes k with
          | Some t when not (Fuzz.Oracle.same_class t o) ->
            mismatch inp.label "hand-driven oracle classifies differently"
          | _ -> ());
          (* report, lint and every backend that takes this V *)
          (match real_c with
          | Ok (Driver.Simdized o) ->
            Span.add "check.obligations" (facts_total (Driver.check_facts o));
            ignore (Span.time "Driver.report" (fun () -> Driver.report o));
            ignore (Span.time "Lint.run" (fun () -> Lint.run o));
            let vl = Machine.vector_len cfg.Driver.machine in
            List.iter
              (fun b ->
                if Backend.supports_vl b vl then ignore (Layers.unit_for b o.Driver.prog))
              Backend.all
          | _ -> ());
          (* the simulator *)
          (match real_u with
          | Ok (Driver.Simdized o) ->
            let setup =
              Layers.sim_prepare ?trip:inp.trip ~seed:inp.setup_seed cfg prog
            in
            ignore (Span.time "Sim_run.run_scalar" (fun () -> Sim_run.run_scalar setup));
            let r =
              Span.time "Sim_run.run_simd" (fun () -> Sim_run.run_simd setup o.Driver.prog)
            in
            Span.add "sim.dyn_ops" (Layers.dyn_ops r.Sim_run.counts)
          | _ -> ());
          (* the compile service: by hand (miss, then hit), for real, in
             process, and over the wire *)
          let line = lines.(k) in
          let by_hand = Layers.serve_line cas line in
          ignore (Layers.serve_line cas line);
          let req = request_of k inp in
          let real =
            Protocol.response_line ~id:req.Protocol.id
              (Compile.outcome_to_json (Span.time "Compile.run" (fun () -> Compile.run req)))
          in
          if by_hand <> real then
            mismatch inp.label "hand-driven response differs from Compile.run";
          let t0 = Span.now_ns () in
          let in_process =
            match Server.handle_batch server [ line ] with
            | [ r ], _ -> r
            | _ -> ""
          in
          let batch_ms = Span.ms_since t0 in
          Span.record "Server.handle_batch" batch_ms;
          let over_wire = ref "" and client_ms = ref 0. in
          Serve_client.closed_loop child
            ~next:(let sent = ref false in
                   fun () -> if !sent then None else (sent := true; Some (k, line)))
            ~on_response:(fun _ r ms ->
              over_wire := r;
              client_ms := ms);
          wire := (!client_ms -. batch_ms) :: !wire;
          if in_process <> real || !over_wire <> real then
            mismatch inp.label "served response differs from Compile.run";
          pace ())
        inputs);
  Span.counting := false;
  Span.median_of !wire

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Layers timed per call (median, p99, calls). *)
let timed_layers =
  [
    "Genloop.gen_case"; "Mask.if_convert"; "Analysis.check"; "Opt.Place";
    "Opt.Joint"; "Gen.generate"; "Driver.simdize"; "Driver.simdize_checked";
    "Driver.report"; "Lint.run"; "Backend.unit_for"; "Compile.run";
    "Cas.store"; "Cas.find"; "Sim_run.prepare"; "Sim_run.run_scalar";
    "Sim_run.run_simd"; "Protocol.parse_line"; "Compile.cache_key";
    "Server.handle_batch";
  ]

let oracle_classes = [ "pass"; "skipped"; "static_violation"; "divergence"; "crash" ]
let skip_buckets = [ "trip_too_small"; "illegal"; "peeling"; "other" ]

(* Every per-layer metric: name, unit, and how to read it after a run.
   BENCHMARK.json lists the same names ([--list-metrics] prints them). *)
let metrics ~untraced ~traced ~wire_ms =
  let f = Speed.factor speed in
  let ms name = Span.median (Span.samples name) *. f in
  let p99 name = Span.percentile (Span.samples name) 0.99 *. f in
  let ops_per_s p = ops_per_s p /. f in
  let cnt name = float_of_int (Span.count name) in
  let ratio a b = if b > 0. then a /. b else 0. in
  List.concat
    [
      List.concat_map
        (fun l ->
          [
            (l ^ "_ms", "ms", fun () -> ms l);
            (l ^ "_p99_ms", "ms", fun () -> p99 l);
            (l ^ ".calls", "count", fun () -> float_of_int (Span.calls l));
          ])
        timed_layers;
      List.concat_map
        (fun s ->
          [
            ("passes." ^ s ^ "_ms", "ms", fun () -> ms ("passes." ^ s));
            ("passes." ^ s ^ ".vir_ops", "count", fun () -> cnt ("passes." ^ s ^ ".vir_ops"));
          ])
        Layers.stage_labels;
      [ ("passes.calls", "count", fun () -> float_of_int (Span.calls "passes.hoist_splats")) ];
      List.map (fun b -> ("check." ^ b ^ "_ms", "ms", fun () -> ms ("check." ^ b))) Layers.boundaries;
      [
        ("check.calls", "count", fun () -> float_of_int (Span.calls "check.placement"));
        ("check.obligations", "count", fun () -> cnt "check.obligations");
        ( "driver.check_share", "ratio",
          fun () ->
            1. -. ratio (Span.total_ms "Driver.simdize") (Span.total_ms "Driver.simdize_checked") );
        ("sim.dyn_ops", "count", fun () -> cnt "sim.dyn_ops");
        ( "cas.hit_ratio", "ratio",
          (* a find that misses is followed by a store *)
          fun () ->
            1. -. ratio (float_of_int (Span.calls "Cas.store")) (float_of_int (Span.calls "Cas.find")) );
        ("server.wire_ms", "ms", fun () -> wire_ms *. f);
      ];
      List.map
        (fun c -> ("oracle.outcome." ^ c, "count", fun () -> cnt ("oracle.outcome." ^ c)))
        oracle_classes;
      List.map (fun b -> ("oracle.skip." ^ b, "count", fun () -> cnt ("oracle.skip." ^ b))) skip_buckets;
      [
        ( "oracle.useful_ratio", "ratio",
          fun () -> ratio (cnt "oracle.outcome.pass") (cnt "faithful.inputs") );
        ("trace.ops_per_s", "1/s", fun () -> ops_per_s traced);
        ("trace.untraced_ops_per_s", "1/s", fun () -> ops_per_s untraced);
        ("trace.ratio", "ratio", fun () -> ratio (ops_per_s traced) (ops_per_s untraced));
        ("faithful.inputs", "count", fun () -> cnt "faithful.inputs");
        ("speed.factor", "ratio", fun () -> f);
      ];
    ]

let metric_names () =
  List.map (fun (n, u, _) -> (n, u)) (metrics ~untraced:{ ops = 0; busy_s = 0. } ~traced:{ ops = 0; busy_s = 0. } ~wire_ms:0.)

(* ------------------------------------------------------------------ *)

type result = {
  values : (string * string * float) list;
  attempted : int;
  failed : int;
  correct : bool;
}

let run ~workload ~seed ~seconds =
  Span.enabled := true;
  let hot = workload = "serve-hot" in
  let cases, inputs =
    match workload with
    | "fuzz" ->
      (* the walk takes ~40 ms an input: the first cases of the same stream *)
      let cases = gen_cases ~seed ~count:traced_fuzz_cases in
      (cases, Array.mapi (input_of_case ~seed) cases)
    | "paper" -> ([||], paper_inputs ~seed)
    | "serve-cold" | "serve-hot" -> ([||], serve_inputs ())
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let untraced, traced, failed, server =
    match workload with
    | "fuzz" ->
      let u, t, f = fuzz_phases ~seconds cases in
      (u, t, f, Server.create ~jobs:1 ())
    | "paper" ->
      let u, t, f = paper_phases ~seconds inputs in
      (u, t, f, Server.create ~jobs:1 ())
    | _ ->
      let expected = spans_off (fun () -> expected_responses inputs) in
      serve_phases ~hot ~seed ~seconds expected
  in
  let wire_ms = walk ~workload ~seed ~server inputs in
  let values =
    List.map (fun (n, u, get) -> (n, u, get ())) (metrics ~untraced ~traced ~wire_ms)
  in
  {
    values;
    attempted = untraced.ops + traced.ops + Array.length inputs;
    (* traced ops are checked like untraced ones; walk inputs by the
       faithfulness check and the oracle *)
    failed = failed + !mismatches + !oracle_failures;
    correct = failed = 0 && !mismatches = 0 && !oracle_failures = 0;
  }
