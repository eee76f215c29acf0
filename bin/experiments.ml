(* experiments — regenerate every table and figure of the paper's §5.

   Subcommands: fig11, fig12, table1, table2, coverage, all.
   See EXPERIMENTS.md for the paper-vs-measured record. *)

open Cmdliner

let machine = Simd.Machine.default

let fig ~reassoc ~loops ~seed () =
  let spec = { Simd.Synth.default_spec with Simd.Synth.seed } in
  let f = Simd.Suite.opd_figure ~machine ~spec ~count:loops ~reassoc in
  Format.printf "%a@." Simd.Suite.pp_opd_figure f

let table ~elem ~loops ~seed () =
  let base_spec = { Simd.Synth.default_spec with Simd.Synth.seed } in
  let t = Simd.Suite.speedup_table ~machine ~elem ~count:loops ~base_spec () in
  Format.printf "%a@." Simd.Suite.pp_speedup_table t

let coverage ~loops ~seed () =
  let r = Simd.Suite.coverage ~machine ~seed ~loops () in
  Format.printf "%a@." Simd.Suite.pp_coverage r;
  if r.Simd.Suite.failures <> [] then exit 1

let extensions ~loops:_ ~seed:_ () =
  (* The future-work extension measurements quoted in EXPERIMENTS.md. *)
  let report label ?(config = Simd.Driver.default) src =
    let program = Simd.parse_exn src in
    let o =
      match Simd.Driver.simdize config program with
      | Simd.Driver.Simdized o -> o
      | Simd.Driver.Scalar r ->
        failwith
          (Format.asprintf "%s: not simdized: %a" label Simd.Driver.pp_reason r)
    in
    (match Simd.Measure.verify_outcome program o with
    | Ok () -> ()
    | Error m -> failwith (label ^ ": " ^ m));
    let sample = Simd.Measure.of_outcome program o in
    let opd = Simd.Measure.opd sample and speedup = Simd.Measure.speedup sample in
    let c = sample.Simd.Measure.counts in
    Format.printf
      "%-28s %8.3f opd  %6.2fx speedup  (LB %.2fx; %d loads, %d shifts, %d \
       packs)@."
      label opd speedup
      (Simd.Measure.lb_speedup sample)
      c.Simd.Exec.vloads c.Simd.Exec.vshifts c.Simd.Exec.vpacks
  in
  Format.printf "Extension measurements (verified differentially first):@.";
  report "dot+max reductions"
    "int32 dot[1] @ 12;\nint32 hi[1] @ 4;\nint32 a[1100] @ 4;\nint32 b[1100] @ 8;\n\
     for (i = 0; i < 1000; i++) { dot += a[i+1] * b[i+3]; hi max= a[i+1]; }";
  report "int16 sum reduction"
    "int16 s[1] @ 2;\nint16 x[1100] @ 6;\n\
     for (i = 0; i < 1000; i++) { s += x[i+3]; }";
  report "deinterleave (stride 2)"
    "int32 re[1024] @ 0;\nint32 im[1024] @ 4;\nint32 x[2100] @ 8;\n\
     for (i = 0; i < 1000; i++) { re[i] = x[2*i]; im[i+1] = x[2*i+1]; }"
    ~config:
      { Simd.Driver.default with
        Simd.Driver.reuse = Simd.Driver.Predictive_commoning };
  report "RGBA channel (stride 4, i8)"
    "int8 red[1100] @ 1;\nint8 rgba[4400] @ 2;\n\
     for (i = 0; i < 1000; i++) { red[i+1] = rgba[4*i+2]; }"
    ~config:
      { Simd.Driver.default with
        Simd.Driver.reuse = Simd.Driver.Predictive_commoning };
  report "strided reduction"
    "int32 s[1] @ 4;\nint32 x[2100] @ 4;\n\
     for (i = 0; i < 1000; i++) { s += x[2*i+1]; }"

let ablations ~loops ~seed () =
  let spec = { Simd.Synth.default_spec with Simd.Synth.seed } in
  let count = max 4 (loops / 2) in
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_reuse_unroll ~machine ~spec ~count ());
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_memnorm ~machine ());
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_vector_length ~spec ~count ());
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_elem_width ~machine ~count ());
  Format.printf "%a@." Simd.Suite.pp_peeling
    (Simd.Suite.peeling_coverage ~machine ~count:(2 * count) ())

let loops_arg ~default =
  Arg.(
    value & opt int default
    & info [ "n"; "loops" ] ~docv:"N" ~doc:"Number of loops per benchmark.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Synthesis seed.")

let subcmd name doc ~default_loops f =
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const (fun loops seed () -> f ~loops ~seed ())
      $ loops_arg ~default:default_loops $ seed_arg $ const ())

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (figures 11/12, tables 1/2, coverage).")
    Term.(
      const (fun loops seed () ->
          Format.printf "=== Figure 11: OPD per scheme, OffsetReassoc OFF ===@.";
          fig ~reassoc:false ~loops ~seed ();
          Format.printf "=== Figure 12: OPD per scheme, OffsetReassoc ON ===@.";
          fig ~reassoc:true ~loops ~seed ();
          Format.printf "=== Table 1: speedups, 4 ints per vector ===@.";
          table ~elem:Simd.Ast.I32 ~loops ~seed ();
          Format.printf "=== Table 2: speedups, 8 shorts per vector ===@.";
          table ~elem:Simd.Ast.I16 ~loops ~seed ();
          Format.printf "=== Coverage (§5.4) ===@.";
          coverage ~loops:(Stdlib.max 400 loops) ~seed ();
          Format.printf "=== Ablations ===@.";
          ablations ~loops ~seed ();
          Format.printf "=== Extensions ===@.";
          extensions ~loops ~seed ())
      $ loops_arg ~default:50 $ seed_arg $ const ())

let cmd =
  Cmd.group
    (Cmd.info "experiments" ~version:"1.0"
       ~doc:"Reproduce the paper's evaluation (PLDI 2004, Eichenberger et al.)")
    [
      subcmd "fig11" "OPD breakdown per scheme, reassociation off." ~default_loops:50
        (fun ~loops ~seed () -> fig ~reassoc:false ~loops ~seed ());
      subcmd "fig12" "OPD breakdown per scheme, reassociation on." ~default_loops:50
        (fun ~loops ~seed () -> fig ~reassoc:true ~loops ~seed ());
      subcmd "table1" "Speedups with 4 ints per vector." ~default_loops:50
        (fun ~loops ~seed () -> table ~elem:Simd.Ast.I32 ~loops ~seed ());
      subcmd "table2" "Speedups with 8 shorts per vector." ~default_loops:50
        (fun ~loops ~seed () -> table ~elem:Simd.Ast.I16 ~loops ~seed ());
      subcmd "coverage" "Random-loop robustness sweep (§5.4)." ~default_loops:400
        (fun ~loops ~seed () -> coverage ~loops ~seed ());
      subcmd "ablations"
        "Design-choice studies: reuse x unroll, memnorm, vector length, \
         element width, peeling baseline."
        ~default_loops:20
        (fun ~loops ~seed () -> ablations ~loops ~seed ());
      subcmd "extensions"
        "Future-work extensions: reductions and strided gathers."
        ~default_loops:1
        (fun ~loops ~seed () -> extensions ~loops ~seed ());
      all_cmd;
    ]

let () = exit (Cmd.eval cmd)
