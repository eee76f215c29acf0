(* perfbench — the repository benchmark.

     main.exe --workload fuzz|paper|serve-cold|serve-hot --seed N
              --seconds S --trace 0|1

   Prints a human-readable table, then one JSON line:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones of the traced run (see traced.ml). --list-metrics
   prints the per-layer names and units as JSON. *)

let default_seed = function
  | "fuzz" -> 20040610
  | "paper" -> Simd.Synth.default_spec.Simd.Synth.seed
  | _ -> 1

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let e2e ~workload ~seed ~seconds =
  let r = Workloads.run_e2e ~workload ~seed ~seconds in
  let attempted = max 1 r.Workloads.ops in

  let metrics =
    [
      ("ops_per_s", "1/s", r.Workloads.ops_per_s);
      ("op_p50_ms", "ms", Span.median r.Workloads.latencies);
      ("op_p99_ms", "ms", Span.percentile r.Workloads.latencies 0.99);
      ("ok_share", "ratio", 1. -. (float_of_int r.Workloads.failed /. float_of_int attempted));
      ("setup_s", "s", r.Workloads.setup_s);
      ("peak_rss_mb", "MiB", r.Workloads.peak_rss_mb);
      ("opd_hmean", "ops/datum", r.Workloads.opd_hmean);
    ]
  in
  Printf.printf
    "workload %s, seed %d, %.1f s measured, %d ops (latency samples)\n\
    \  machine speed %.4f of nominal; unscaled %.3f ops/s\n"
    workload seed r.Workloads.measured_s r.Workloads.ops r.Workloads.speed_factor
    r.Workloads.raw_ops_per_s;
  Printf.printf "  %-14s %16.6f\n" "failed_share"
    (float_of_int r.Workloads.failed /. float_of_int attempted);
  List.iter (fun (n, u, v) -> Printf.printf "  %-14s %16.6f %s\n" n v u) metrics;
  print_result ~correct:r.Workloads.correct ~attempted ~failed:r.Workloads.failed metrics;
  r.Workloads.correct

let traced ~workload ~seed ~seconds =
  let r = Traced.run ~workload ~seed ~seconds in
  Printf.printf "workload %s, seed %d, traced run: every span (ms per call)\n" workload seed;
  Printf.printf "  %-36s %10s %10s %8s %12s\n" "span" "median" "p99" "calls" "total";
  List.iter
    (fun name ->
      let a = Span.samples name in
      Printf.printf "  %-36s %10.4f %10.4f %8d %12.1f\n" name (Span.median a)
        (Span.percentile a 0.99) (Array.length a) (Span.total_ms name))
    (Span.span_names ());
  List.iter (fun (n, u, v) -> Printf.printf "  %-36s %16.6f %s\n" n v u) r.Traced.values;
  print_result ~correct:r.Traced.correct ~attempted:(max 1 r.Traced.attempted)
    ~failed:r.Traced.failed r.Traced.values;
  r.Traced.correct

let usage () =
  prerr_endline
    "usage: main.exe --workload fuzz|paper|serve-cold|serve-hot [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--serve-child"; socket; cache ] -> Serve_client.serve_child ~socket ~cache
  | [ "--list-metrics" ] ->
    print_endline
      ("["
      ^ String.concat ",\n "
          (List.map
             (fun (n, u) -> Printf.sprintf "{\"name\": %S, \"unit\": %S}" n u)
             (Traced.metric_names ()))
      ^ "]")
  | args ->
    let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
    let rec parse = function
      | "--workload" :: w :: rest -> workload := w; parse rest
      | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
      | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some s -> s | None -> usage ());
        parse rest
      | "--trace" :: t :: rest -> trace := (match t with "1" -> 1 | "0" -> 0 | _ -> usage ()); parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    if not (List.mem !workload [ "fuzz"; "paper"; "serve-cold"; "serve-hot" ]) then usage ();
    let seed = Option.value !seed ~default:(default_seed !workload) in
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let ok =
      Fun.protect
        ~finally:(fun () -> Serve_client.remove_tree Serve_client.tmp_dir)
        (fun () ->
          if !trace = 1 then traced ~workload:!workload ~seed ~seconds:!seconds
          else e2e ~workload:!workload ~seed ~seconds:!seconds)
    in
    exit (if ok then 0 else 1)
