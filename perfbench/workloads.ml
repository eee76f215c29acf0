(* The four workloads. Each builds its inputs from the seed, runs closed
   loops of ops for a fixed time, and checks every op's output. An op is
   one fuzz case, one (loop, scheme) measurement, or one compile request. *)

open Simd
module Protocol = Serve.Protocol
module Compile = Serve.Compile
module Server = Serve.Server
module Oracle = Fuzz.Oracle

let fuzz_cases = 4000
let traced_fuzz_cases = 600
let paper_loops = 50
let serve_vls = [ 8; 16; 32 ]
let setup_repeats = 15
let hot_setups = 3

(* One client per serve workload. With two closed-loop clients the server
   appears to starve one of them whenever the other's next request
   arrives before its batching probe ([Server.listen_unix] keeps serving
   a connection while lines are buffered): p99 then reaches ~100 ms, and
   whether that happens flips from run to run with timing. *)
let serve_clients = 1

(* Check failures go to stderr; the first five are enough to debug. *)
let complaints = ref 0

let complain fmt =
  Format.kasprintf
    (fun s ->
      incr complaints;
      if !complaints <= 5 then prerr_endline ("perfbench: " ^ s))
    fmt

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = {
  label : string;
  program : Ast.program;
  config : Driver.config;
  trip : int option;
  setup_seed : int;
  source : string;
}

let gen_cases ~seed ~count =
  let prng = Prng.create ~seed in
  Array.init count (fun _ ->
      Span.time "Genloop.gen_case" (fun () -> Fuzz.Genloop.gen_case prng))

let input_of_case ~seed i (c : Fuzz.Case.t) =
  {
    label = Printf.sprintf "fuzz case %d of seed %d" i seed;
    program = c.Fuzz.Case.program;
    config = c.Fuzz.Case.config;
    trip = c.Fuzz.Case.trip;
    setup_seed = c.Fuzz.Case.setup_seed;
    source = Pp.program_to_string c.Fuzz.Case.program;
  }

let case_of_input i =
  {
    Fuzz.Case.program = i.program;
    config = i.config;
    trip = i.trip;
    setup_seed = i.setup_seed;
  }

(* Figure 11's benchmark: [paper_loops] synthesized S1*L6 int32 loops
   (trip 1000) under every scheme, without the verifier. *)
let paper_inputs ~seed =
  let machine = Machine.default in
  let loops =
    Synth.benchmark ~machine ~spec:{ Synth.default_spec with Synth.seed } ~count:paper_loops
  in
  List.concat
    (List.mapi
       (fun l program ->
         let source = Pp.program_to_string program in
         List.map
           (fun scheme ->
             {
               label =
                 Printf.sprintf "paper loop %d (synth seed %d) scheme %s" l
                   (seed + (1000 * l)) (Suite.scheme_name scheme);
               program;
               config = Suite.config_of_scheme ~machine ~reassoc:false scheme;
               trip = None;
               setup_seed = 0x5EED;
               source;
             })
           Suite.all_schemes)
       loops)
  |> Array.of_list

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every distinct request: corpus file × policy × V. Runtime-bound loops
   simulate at trip 1000 (the corpus sizes their arrays for it). *)
let serve_inputs () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".simd")
    |> List.sort compare
  in
  if files = [] then failwith "no .simd files in corpus/";
  List.concat_map
    (fun file ->
      let source = read_file (Filename.concat "corpus" file) in
      let program = Parse.program_of_string source in
      List.concat_map
        (fun policy ->
          List.map
            (fun vl ->
              {
                label =
                  Printf.sprintf "corpus/%s policy=%s vl=%d" file (Policy.name policy) vl;
                program;
                config =
                  { Driver.default with Driver.policy; machine = Machine.create ~vector_len:vl };
                trip =
                  (match program.Ast.loop.Ast.trip with
                  | Ast.Trip_param _ -> Some 1000
                  | Ast.Trip_const _ -> None);
                setup_seed = 0x5EED;
                source;
              })
            serve_vls)
        Policy.all)
    files
  |> Array.of_list

let request_of k i =
  {
    Protocol.id = Printf.sprintf "r%04d" k;
    source = i.source;
    config = i.config;
    emits = Protocol.default_emits;
  }

(* The in-process rendering every served response must equal. *)
let expected_responses inputs =
  Array.mapi
    (fun k i ->
      let req = request_of k i in
      let doc = Compile.outcome_to_json (Compile.run req) in
      let is_error =
        Json.member "status" doc |> Fun.flip Option.bind Json.to_string_opt
        = Some "error"
      in
      (Protocol.request_to_line req, Protocol.response_line ~id:req.Protocol.id doc, is_error))
    inputs

let shuffled ~seed n =
  let a = Array.init n Fun.id in
  Prng.shuffle (Prng.create ~seed) a;
  a

(* ------------------------------------------------------------------ *)
(* Code quality                                                        *)
(* ------------------------------------------------------------------ *)

let hmean = function
  | [] -> 0.
  | xs ->
    float_of_int (List.length xs) /. List.fold_left (fun a x -> a +. (1. /. x)) 0. xs

(* OPD of one input's simdized, simulated loop; [None] when it stays
   scalar or the trip guard runs the scalar original. *)
let opd_of i =
  match Measure.run ~config:i.config ~setup_seed:i.setup_seed ?trip:i.trip i.program with
  | s when not s.Measure.fallback -> Some (Measure.opd s)
  | _ -> None
  | exception Measure.Not_simdized _ -> None

let opd_hmean inputs = hmean (List.filter_map opd_of (Array.to_list inputs))

(* ------------------------------------------------------------------ *)
(* End-to-end runs                                                     *)
(* ------------------------------------------------------------------ *)

type e2e = {
  ops : int;
  failed : int;
  measured_s : float;
  speed_factor : float;  (** {!Speed.factor} over the timed phase *)
  raw_ops_per_s : float;  (** before scaling *)
  ops_per_s : float;
  latencies : float array;  (** ms, ascending, scaled *)
  setup_s : float;
  peak_rss_mb : float;
  opd_hmean : float;
  correct : bool;
}

(* Set-up times, with a reference slice on either side of each, so that
   their scaling reflects the machine's speed at set-up time. *)
type setups = { mutable times : float list; around : Speed.t }

let setups () = { times = []; around = Speed.create () }

let time_setup s f =
  Speed.slice s.around;
  let t0 = Span.now_ns () in
  let r = f () in
  s.times <- Span.s_since t0 :: s.times;
  Speed.slice s.around;
  r

let setup_s s = Span.median_of s.times *. Speed.factor s.around

(* An in-process set-up, repeated [setup_repeats] times; the last result. *)
let repeated_setup s f =
  for _ = 2 to setup_repeats do
    ignore (time_setup s f)
  done;
  time_setup s f

(* Op latencies and the measured clock, which runs only while a timed
   phase does and stops for reference slices. *)
type meter = {
  lat : Span.series;
  speed : Speed.t;
  mutable base_s : float;
  mutable t0 : int64;
  mutable slice_at : float;
}

let meter () =
  { lat = Span.new_series (); speed = Speed.create (); base_s = 0.; t0 = 0L;
    slice_at = Speed.period_s }

let start m = m.t0 <- Span.now_ns ()
let stop m = m.base_s <- m.base_s +. Span.s_since m.t0
let measured m = m.base_s +. Span.s_since m.t0
let tick m ms = Span.push m.lat ms
let slice_due m = measured m >= m.slice_at

let take_slice m =
  stop m;
  Speed.slice m.speed;
  m.slice_at <- m.base_s +. Speed.period_s;
  start m

(* Run [op i] for i = 0, 1, ... until [seconds] have been measured. *)
let timed_loop ~seconds m op =
  start m;
  let i = ref 0 in
  while measured m < seconds do
    let t = Span.now_ns () in
    op !i;
    tick m (Span.ms_since t);
    incr i;
    if slice_due m then take_slice m
  done;
  stop m

(* The closed loop of {!Serve_client}, cut into segments that end when a
   reference slice is due, once their in-flight requests complete. *)
let paced_closed_loop srv m ~next ~on_response =
  let exhausted = ref false in
  start m;
  while not !exhausted do
    Serve_client.closed_loop srv ~on_response ~next:(fun () ->
        if !exhausted || slice_due m then None
        else
          match next () with
          | None ->
            exhausted := true;
            None
          | r -> r);
    if not !exhausted then take_slice m
  done;
  stop m

let finish m ~failed ~setups ~peak_rss_mb ~opd_hmean ~ok =
  let f = Speed.factor m.speed in
  let raw = float_of_int m.lat.Span.len /. m.base_s in
  {
    ops = m.lat.Span.len;
    failed;
    measured_s = m.base_s;
    speed_factor = f;
    raw_ops_per_s = raw;
    ops_per_s = raw /. f;
    latencies = Array.map (fun ms -> ms *. f) (Span.sorted m.lat);
    setup_s = setup_s setups;
    peak_rss_mb;
    opd_hmean;
    correct = ok && failed = 0;
  }

(* fuzz: the differential oracle over generated cases, cycled. Every
   case must classify the same way each time it runs. *)
let fuzz_op cases first failed =
  let n = Array.length cases in
  fun i ->
    let k = i mod n in
    let o = Oracle.run cases.(k) in
    (match first.(k) with
    | None -> first.(k) <- Some o
    | Some o0 when Oracle.same_class o o0 -> ()
    | Some _ ->
      incr failed;
      complain "fuzz case %d classified differently on a rerun" k);
    if Oracle.is_failure o then begin
      incr failed;
      complain "fuzz case %d: %s" k (Format.asprintf "%a" Oracle.pp_outcome o)
    end

let fuzz ~seed ~seconds =
  let setups = setups () in
  let cases = repeated_setup setups (fun () -> gen_cases ~seed ~count:fuzz_cases) in
  let first = Array.make (Array.length cases) None in
  let failed = ref 0 in
  let m = meter () in
  timed_loop ~seconds m (fuzz_op cases first failed);
  finish m ~failed:!failed ~setups ~peak_rss_mb:(Span.self_hwm_mb ())
    ~opd_hmean:(opd_hmean (Array.mapi (input_of_case ~seed) cases))
    ~ok:true

(* paper: [Measure.run] over every (loop, scheme), cycled. OPD must repeat
   exactly; arenas are verified once per pair after the timed loop. *)
type paper_state = { opd : float array; runs : int array; scalar : bool array }

let paper_op inputs st failed =
  let n = Array.length inputs in
  fun i ->
    let k = i mod n in
    let inp = inputs.(k) in
    st.runs.(k) <- st.runs.(k) + 1;
    match Measure.run ~config:inp.config inp.program with
    | s ->
      let opd = Measure.opd s in
      if Float.is_nan st.opd.(k) then st.opd.(k) <- opd
      else if opd <> st.opd.(k) then begin
        incr failed;
        complain "%s: OPD %.17g then %.17g" inp.label st.opd.(k) opd
      end
    | exception Measure.Not_simdized _ -> st.scalar.(k) <- true

let paper_state n =
  { opd = Array.make n Float.nan; runs = Array.make n 0; scalar = Array.make n false }

let paper ~seed ~seconds =
  let setups = setups () in
  let inputs = repeated_setup setups (fun () -> paper_inputs ~seed) in
  let n = Array.length inputs in
  let st = paper_state n in
  let failed = ref 0 in
  let m = meter () in
  timed_loop ~seconds m (paper_op inputs st failed);
  Array.iteri
    (fun k inp ->
      match Measure.verify ~config:inp.config inp.program with
      | Ok () -> ()
      | Error _ when st.scalar.(k) -> ()
      | Error m ->
        failed := !failed + st.runs.(k);
        complain "%s: %s" inp.label m)
    inputs;
  (* pairs the timed loop never reached still count towards OPD *)
  let opds =
    List.filter_map
      (fun k ->
        if st.scalar.(k) then None
        else if Float.is_nan st.opd.(k) then opd_of inputs.(k)
        else Some st.opd.(k))
      (List.init n Fun.id)
  in
  finish m ~failed:!failed ~setups ~peak_rss_mb:(Span.self_hwm_mb ())
    ~opd_hmean:(hmean opds) ~ok:true

(* A served response is correct when it equals the in-process rendering
   and that rendering is not an error. *)
let check_response expected failed idx line =
  let _, want, is_error = expected.(idx) in
  if line <> want || is_error then begin
    incr failed;
    complain "request %d: %s" idx
      (if is_error then "error response" else "response differs from Compile.run")
  end

(* serve-cold: rounds of every distinct request once, in seeded order,
   against a fresh server with an empty cache. *)
let serve_cold ~seed ~seconds =
  let inputs = serve_inputs () in
  let expected = expected_responses inputs in
  let order = shuffled ~seed (Array.length inputs) in
  let m = meter () in
  let failed = ref 0 and setups = setups () and child = ref 0. in
  while m.base_s < seconds do
    let srv = time_setup setups (fun () -> Serve_client.start ~clients:serve_clients) in
    let pos = ref 0 in
    let next () =
      if !pos >= Array.length order then None
      else begin
        let idx = order.(!pos) in
        incr pos;
        let line, _, _ = expected.(idx) in
        Some (idx, line)
      end
    in
    Fun.protect
      ~finally:(fun () -> child := Float.max !child (Serve_client.stop srv))
      (fun () ->
        paced_closed_loop srv m ~next ~on_response:(fun idx line ms ->
            tick m ms;
            check_response expected failed idx line))
  done;
  finish m ~failed:!failed ~setups
    ~peak_rss_mb:(Span.self_hwm_mb () +. !child)
    ~opd_hmean:(opd_hmean inputs) ~ok:true

(* The server's cache counters, from its stats response. *)
let cache_counts stats_line =
  match Json.of_string stats_line with
  | Ok doc -> (
    match Json.member "cache" doc with
    | Some cache ->
      let get k = Option.bind (Json.member k cache) Json.to_int_opt in
      (get "hits", get "misses")
    | None -> (None, None))
  | Error _ -> (None, None)

(* serve-hot: one long-lived server warmed with every distinct request,
   then a seeded draw over the same requests for [seconds]. Every timed
   request must hit the cache. The set-up (start and warm fill) runs
   [hot_setups] times; the last server is the one measured. *)
let serve_hot ~seed ~seconds =
  let inputs = serve_inputs () in
  let expected = expected_responses inputs in
  let n = Array.length inputs in
  let prng = Prng.create ~seed in
  let m = meter () in
  let failed = ref 0 and setups = setups () and child = ref 0. in
  let ok = ref true in
  let stop_server s = child := Float.max !child (Serve_client.stop s) in
  let warm s =
    let pos = ref 0 in
    Serve_client.closed_loop s
      ~next:(fun () ->
        if !pos >= n then None
        else begin
          incr pos;
          let line, _, _ = expected.(!pos - 1) in
          Some (!pos - 1, line)
        end)
      ~on_response:(fun idx line _ -> check_response expected failed idx line)
  in
  let start_warm () =
    time_setup setups (fun () ->
        let s = Serve_client.start ~clients:serve_clients in
        (try warm s
         with e ->
           stop_server s;
           raise e);
        s)
  in
  for _ = 2 to hot_setups do
    stop_server (start_warm ())
  done;
  let s = start_warm () in
  Fun.protect
    ~finally:(fun () -> stop_server s)
    (fun () ->
      let sent = ref 0 in
      paced_closed_loop s m
        ~next:(fun () ->
          if measured m >= seconds then None
          else begin
            incr sent;
            let idx = Prng.int prng ~bound:n in
            let line, _, _ = expected.(idx) in
            Some (idx, line)
          end)
        ~on_response:(fun idx line ms ->
          tick m ms;
          check_response expected failed idx line);
      match cache_counts (Serve_client.stats s) with
      | Some hits, Some misses when hits = !sent && misses = n -> ()
      | hits, misses ->
        ok := false;
        let str = function Some x -> string_of_int x | None -> "?" in
        complain "serve-hot: %s hits / %s misses, expected %d / %d" (str hits)
          (str misses) !sent n);
  finish m ~failed:!failed ~setups
    ~peak_rss_mb:(Span.self_hwm_mb () +. !child)
    ~opd_hmean:(opd_hmean inputs) ~ok:!ok

let run_e2e ~workload ~seed ~seconds =
  match workload with
  | "fuzz" -> fuzz ~seed ~seconds
  | "paper" -> paper ~seed ~seconds
  | "serve-cold" -> serve_cold ~seed ~seconds
  | "serve-hot" -> serve_hot ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)
