(* Differential fuzzing subsystem tests: generator well-formedness, case
   serialization, campaign determinism, shrinker behavior, a fixed-seed
   smoke campaign (the tier-1 gate), and replay of every committed
   reproducer in corpus/fuzz/. *)

open Simd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Locate corpus/fuzz the same way test_corpus locates corpus/. *)
let fuzz_corpus_dir =
  List.find_opt Sys.file_exists
    [
      "../corpus/fuzz";
      "corpus/fuzz";
      "../../corpus/fuzz";
      "../../../corpus/fuzz";
    ]

let test_generator_well_formed () =
  let prng = Prng.create ~seed:7 in
  for _ = 1 to 500 do
    let case = Fuzz.Genloop.gen_case prng in
    (* Legality is judged on the if-converted program, exactly as the
       driver judges it: raw guarded reductions are rejected by design. *)
    (match
       Analysis.check ~machine:case.Fuzz.Case.config.Driver.machine
         (Mask.apply case.Fuzz.Case.program)
     with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "generated program is illegal: %s\n%s"
        (Analysis.error_to_string e)
        (Pp.program_to_string case.Fuzz.Case.program));
    (* runtime-bound cases always carry a concrete trip to run at *)
    ignore (Fuzz.Case.effective_trip case)
  done

let test_case_roundtrip () =
  let prng = Prng.create ~seed:11 in
  for _ = 1 to 200 do
    let case = Fuzz.Genloop.gen_case prng in
    match Fuzz.Case.of_string (Fuzz.Case.to_string case) with
    | Error m -> Alcotest.failf "reproducer did not re-parse: %s" m
    | Ok case' ->
      check_bool "program round trips" true
        (Ast.equal_program case.Fuzz.Case.program case'.Fuzz.Case.program);
      check_bool "config round trips" true
        (Driver.config_to_string case.Fuzz.Case.config
        = Driver.config_to_string case'.Fuzz.Case.config);
      check_bool "trip round trips" true
        (case.Fuzz.Case.trip = case'.Fuzz.Case.trip);
      check_int "seed round trips" case.Fuzz.Case.setup_seed
        case'.Fuzz.Case.setup_seed
  done;
  check_bool "reuse=none parses" true
    (Result.map
       (fun c -> c.Fuzz.Case.config.Driver.reuse)
       (Fuzz.Case.of_string
          "// fuzz-config: reuse=none\nint32 a[8] @ 0;\n\
           for (i = 0; i < 8; i++) { a[i] = 1; }\n")
    = Ok Driver.No_reuse)

(* One codec for reproducer headers, cache keys and serve configs: both
   the text and the JSON form invert on every generated configuration. *)
let prop_config_codec_round_trip =
  QCheck.Test.make ~count:500 ~name:"config codec round trip" QCheck.int
    (fun seed ->
      let prng = Prng.create ~seed in
      let config =
        {
          (let machine = Fuzz.Genloop.gen_machine prng in
           Fuzz.Genloop.gen_config prng ~machine)
          with
          Driver.cleanup = Prng.bool prng;
        }
      in
      Driver.config_of_string (Driver.config_to_string config) = Ok config
      && Serve.Protocol.config_of_json (Serve.Protocol.config_to_json config)
         = Ok config)

(* Serve cache keys and committed reproducer headers are this string: a
   change to it orphans every cached artifact and reproducer. *)
let test_config_string_pinned () =
  Alcotest.(check string)
    "default" "vl=16 policy=dominant reuse=sp memnorm=1 reassoc=0 cse=1 \
               hoist=1 unroll=1 specialize=1 peel=0 cleanup=0"
    (Driver.config_to_string Driver.default)

(* Each committed reproducer header parses to the configuration it was
   found under. A new reproducer adds its line here. *)
let reproducer_configs =
  [
    ( "native-signed-overflow-ub.simd",
      "vl=4 policy=zero reuse=plain memnorm=0 reassoc=0 cse=0 hoist=0 \
       unroll=1 specialize=0 peel=0 cleanup=0 seed=0" );
    ( "pc-unroll-carry-chain-eager.simd",
      "vl=8 policy=eager reuse=pc memnorm=0 reassoc=0 cse=0 hoist=0 \
       unroll=2 specialize=0 peel=0 cleanup=0 seed=0" );
    ( "pc-unroll-carry-chain-one-stmt.simd",
      "vl=8 policy=zero reuse=pc memnorm=0 reassoc=0 cse=0 hoist=0 \
       unroll=2 specialize=0 peel=0 cleanup=0 seed=0" );
    ( "pc-unroll-carry-chain-two-stores.simd",
      "vl=16 policy=zero reuse=pc memnorm=0 reassoc=0 cse=0 hoist=0 \
       unroll=2 specialize=0 peel=0 cleanup=0 seed=0" );
    ( "pc-unroll-carry-chain-vl32.simd",
      "vl=32 policy=eager reuse=pc memnorm=0 reassoc=0 cse=0 hoist=0 \
       unroll=2 specialize=0 peel=0 cleanup=0 seed=0" );
  ]

let test_reproducer_headers_pinned () =
  match fuzz_corpus_dir with
  | None -> Alcotest.fail "corpus/fuzz directory not found"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".simd")
      |> List.sort compare
    in
    check_bool "every reproducer pinned" true
      (files = List.map fst reproducer_configs);
    List.iter
      (fun (f, expected) ->
        match Fuzz.Case.of_file (Filename.concat dir f) with
        | Error m -> Alcotest.failf "%s: %s" f m
        | Ok case ->
          Alcotest.(check string)
            f expected
            (Printf.sprintf "%s seed=%d"
               (Driver.config_to_string case.Fuzz.Case.config)
               case.Fuzz.Case.setup_seed))
      reproducer_configs

let test_campaign_deterministic () =
  let record () =
    let log = ref [] in
    let on_case index case outcome =
      log :=
        ( index,
          Pp.program_to_string case.Fuzz.Case.program,
          Driver.config_to_string case.Fuzz.Case.config,
          Fuzz.Oracle.outcome_name outcome )
        :: !log
    in
    let stats, _ =
      Fuzz.Campaign.run ~shrink:false ~on_case ~seed:99 ~budget:150 ()
    in
    (stats, List.rev !log)
  in
  let stats_a, log_a = record () in
  let stats_b, log_b = record () in
  check_bool "same stats" true (stats_a = stats_b);
  check_bool "same cases and outcomes" true (log_a = log_b);
  check_int "all cases observed" 150 (List.length log_a)

(* The tier-1 smoke gate: a fixed-seed budget must come back clean. *)
let test_smoke_no_failures () =
  let stats, failures =
    Fuzz.Campaign.run ~shrink:false ~seed:1 ~budget:2000 ()
  in
  check_int "no divergences" 0 stats.Fuzz.Campaign.divergences;
  check_int "no crashes" 0 stats.Fuzz.Campaign.crashes;
  check_bool "no failures" true (failures = []);
  check_bool "mostly passing" true (stats.Fuzz.Campaign.passed > 1000)

(* Shrinking against a synthetic oracle: the minimizer must preserve the
   failure class while strictly reducing the case, and must terminate. *)
let test_shrinker_minimizes () =
  let prng = Prng.create ~seed:5 in
  (* Find a roomy case so there is something to shrink. *)
  let rec pick () =
    let c = Fuzz.Genloop.gen_case prng in
    if List.length c.Fuzz.Case.program.Ast.loop.Ast.body >= 2 then c
    else pick ()
  in
  let case = pick () in
  let case =
    {
      case with
      Fuzz.Case.config = { case.Fuzz.Case.config with Driver.cleanup = true };
    }
  in
  (* Synthetic failure: any program that still loads something. *)
  let oracle (c : Fuzz.Case.t) =
    if
      List.exists
        (fun (s : Ast.stmt) -> Ast.expr_loads s.Ast.rhs <> [])
        c.Fuzz.Case.program.Ast.loop.Ast.body
    then Fuzz.Oracle.Divergence "synthetic"
    else Fuzz.Oracle.Pass
  in
  let min = Fuzz.Shrink.minimize ~oracle case in
  check_bool "still failing" true (Fuzz.Oracle.is_failure (oracle min));
  check_int "one statement left" 1
    (List.length min.Fuzz.Case.program.Ast.loop.Ast.body);
  check_bool "fewer or equal arrays" true
    (List.length min.Fuzz.Case.program.Ast.arrays
    <= List.length case.Fuzz.Case.program.Ast.arrays);
  (* the failure ignores the configuration, so every pass shrinks off *)
  List.iter
    (fun k ->
      check_bool (k.Driver.name ^ " shrunk off") false
        (k.Driver.on min.Fuzz.Case.config))
    Driver.knobs;
  (* a passing case comes back unchanged *)
  let pass = { case with Fuzz.Case.setup_seed = case.Fuzz.Case.setup_seed } in
  check_bool "non-failure untouched" true
    (Fuzz.Shrink.minimize ~oracle:(fun _ -> Fuzz.Oracle.Pass) pass == pass)

(* Every committed reproducer is a regression seed: it must load and its
   bug must stay fixed. *)
let test_replay_reproducers () =
  match fuzz_corpus_dir with
  | None -> Alcotest.fail "corpus/fuzz directory not found"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".simd")
      |> List.sort compare
    in
    check_bool "reproducers present" true (files <> []);
    List.iter
      (fun f ->
        match Fuzz.Case.of_file (Filename.concat dir f) with
        | Error m -> Alcotest.failf "%s: %s" f m
        | Ok case -> (
          match Fuzz.Oracle.run case with
          | Fuzz.Oracle.Pass -> ()
          | o ->
            Alcotest.failf "%s: regressed to %s" f
              (Format.asprintf "%a" Fuzz.Oracle.pp_outcome o)))
      files

(* Reference for [Oracle.run]: two compilations, a checked one read only
   for its first error-severity violation, then [Measure.verify]
   compiling the case again and spotting a scalar fallback by its message
   prefix. One checked compilation must classify every case the same
   way, message included. *)
let two_stage_reference (c : Fuzz.Case.t) : Fuzz.Oracle.outcome =
  let static =
    match Driver.simdize ~check:true c.Fuzz.Case.config c.Fuzz.Case.program with
    | Driver.Scalar _ -> None
    | Driver.Simdized o ->
      List.find_map
        (fun (boundary, (v : Check.violation)) ->
          if v.Check.severity = Check.Error then
            Some
              (Printf.sprintf "at %s: %s" boundary
                 (Check.violation_to_string v))
          else None)
        (Driver.check_violations o)
  in
  match static with
  | Some m -> Fuzz.Oracle.Static_violation m
  | None -> (
    match
      Measure.verify ~config:c.Fuzz.Case.config
        ~setup_seed:c.Fuzz.Case.setup_seed ?trip:c.Fuzz.Case.trip
        c.Fuzz.Case.program
    with
    | Ok () -> Fuzz.Oracle.Pass
    | Error m when String.starts_with ~prefix:"not simdized" m ->
      Fuzz.Oracle.Skipped m
    | Error m -> Fuzz.Oracle.Divergence m
    | exception e -> Fuzz.Oracle.Crash (Printexc.to_string e))

let test_single_compile_matches_two_stage () =
  let reproducers =
    match fuzz_corpus_dir with
    | None -> Alcotest.fail "corpus/fuzz directory not found"
    | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".simd")
      |> List.sort compare
      |> List.map (fun f ->
             match Fuzz.Case.of_file (Filename.concat dir f) with
             | Ok c -> (f, c)
             | Error m -> Alcotest.failf "%s: %s" f m)
  in
  let prng = Prng.create ~seed:20040610 in
  let generated =
    List.init 500 (fun k ->
        (Printf.sprintf "genloop #%d" k, Fuzz.Genloop.gen_case prng))
  in
  let show o = Format.asprintf "%a" Fuzz.Oracle.pp_outcome o in
  let classes = Hashtbl.create 4 in
  List.iter
    (fun (label, c) ->
      let got = Fuzz.Oracle.run c and want = two_stage_reference c in
      Hashtbl.replace classes (Fuzz.Oracle.outcome_name got) ();
      if got <> want then
        Alcotest.failf "%s: one compile gives %s, two stages gave %s" label
          (show got) (show want))
    (reproducers @ generated);
  (* the generated stream exercises more than one verdict *)
  check_bool "passes and skips both seen" true
    (Hashtbl.mem classes "pass" && Hashtbl.mem classes "skipped")

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator well-formed" `Quick
          test_generator_well_formed;
        Alcotest.test_case "case serialization round trip" `Quick
          test_case_roundtrip;
        Alcotest.test_case "campaign deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "fixed-seed smoke clean" `Quick
          test_smoke_no_failures;
        Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
        Alcotest.test_case "reproducers stay fixed" `Quick
          test_replay_reproducers;
        Alcotest.test_case "one compile matches the two-stage oracle" `Quick
          test_single_compile_matches_two_stage;
        QCheck_alcotest.to_alcotest prop_config_codec_round_trip;
        Alcotest.test_case "config string pinned" `Quick
          test_config_string_pinned;
        Alcotest.test_case "reproducer headers pinned" `Quick
          test_reproducer_headers_pinned;
      ] );
  ]
