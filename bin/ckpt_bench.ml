(* ckpt-bench: machine-readable benchmarks and the noise-aware
   regression gate (docs/BENCHMARKS.md).

     ckpt-bench run   [--quick] [-o FILE] [--filter SUBSTR] [--tag TAG]
                      [--metrics FMT] [--metrics-out FILE] [--trace FILE]
     ckpt-bench diff  BASELINE CANDIDATE [--config bench.toml]
     ckpt-bench check --baseline FILE [--candidate FILE] [--full]
                      [--config FILE] [-o FILE]

   `run` executes the Ckpt_bench case registry and serializes a
   BENCH_<n>.json (schema.mli), plus the shared observability outputs
   (Ckpt_obs_cli); `run` and `check` both end with
   Cases.assert_mc_deterministic. `diff` compares two result files with
   the noise-aware comparator — strict defaults (max(10%, 3 sigma))
   unless --config supplies bench.toml overrides; `check` is the CI
   gate: it runs the benches (quick mode by default), validates the
   required metric keys as typed JSON fields (a key inside a string
   value does NOT count, unlike the grep this replaced), and compares
   against the committed baseline. `check` auto-loads ./bench.toml so
   the CI invocation is reproducible locally with one command.

   Exit codes: 0 ok, 1 regression/missing-case/missing-metric-key,
   2 usage or configuration error. *)

module Bench_config = Ckpt_bench.Bench_config
module Cases = Ckpt_bench.Cases
module Compare = Ckpt_bench.Compare
module Obs_cli = Ckpt_obs_cli.Obs_cli
module Runner = Ckpt_bench.Runner
module Schema = Ckpt_bench.Schema

open Cmdliner

let err fmt = Printf.ksprintf (fun msg -> prerr_endline ("ckpt-bench: " ^ msg)) fmt

(* The trajectory files: BENCH_1.json, BENCH_2.json, ... in the current
   directory; `run` picks the next free index by default. *)
let next_bench_path () =
  let rec go n =
    let path = Printf.sprintf "BENCH_%d.json" n in
    if Sys.file_exists path then go (n + 1) else path
  in
  go 1

let load_config ~required = function
  | Some path -> (
      match Bench_config.load path with
      | config -> Ok (Some config)
      | exception Failure msg -> Error msg
      | exception Sys_error msg -> Error msg)
  | None ->
      if required && Sys.file_exists "bench.toml" then
        match Bench_config.load "bench.toml" with
        | config -> Ok (Some config)
        | exception Failure msg -> Error msg
        | exception Sys_error msg -> Error msg
      else Ok None

let case_filter ~filter ~tags (case : Cases.case) =
  (match filter with
  | None -> true
  | Some sub ->
      let len = String.length sub in
      let n = String.length case.name in
      len <= n
      && Seq.ints 0
         |> Seq.take (n - len + 1)
         |> Seq.exists (fun i -> String.equal (String.sub case.name i len) sub))
  && (tags = [] || List.exists (fun t -> List.mem t case.tags) tags)

let progress verbose name (result : Schema.case_result) =
  if verbose then
    Printf.eprintf "  %-32s mean %.3e s  (stddev %.1e, %d samples)\n%!" name
      result.Schema.mean result.Schema.stddev result.Schema.samples

let execute ~quick ~filter ~tags ~verbose =
  if verbose then
    Printf.eprintf "ckpt-bench: running cases (%s mode)...\n%!"
      (if quick then "quick" else "full");
  let run =
    Runner.run ~filter:(case_filter ~filter ~tags) ~on_case:(progress verbose) ~quick ()
  in
  Cases.assert_mc_deterministic ~quick;
  run

(* --- run ------------------------------------------------------------ *)

(* The observability sinks flush even when a case or the determinism
   check raises, so a failing run still leaves its snapshot and trace. *)
let run_cmd quick output filter tags quiet obs_flush =
  Fun.protect ~finally:obs_flush @@ fun () ->
  let run = execute ~quick ~filter ~tags ~verbose:(not quiet) in
  if run.Schema.cases = [] then begin
    err "no case matches the given --filter/--tag";
    2
  end
  else begin
    let path = match output with Some p -> p | None -> next_bench_path () in
    Schema.write ~path run;
    Printf.printf "wrote %s (%d cases, git %s, %s mode)\n" path
      (List.length run.Schema.cases) run.Schema.meta.Schema.git_sha
      (match run.Schema.meta.Schema.mode with Schema.Quick -> "quick" | Schema.Full -> "full");
    0
  end

(* --- diff ----------------------------------------------------------- *)

let mode_warning (baseline : Schema.run) (candidate : Schema.run) =
  let mode_name = function Schema.Quick -> "quick" | Schema.Full -> "full" in
  let bm = baseline.Schema.meta.Schema.mode and cm = candidate.Schema.meta.Schema.mode in
  match (bm, cm) with
  | Schema.Quick, Schema.Quick | Schema.Full, Schema.Full -> ()
  | _ ->
      err "warning: comparing a %s-mode baseline against a %s-mode candidate; \
           workloads differ, deltas are not meaningful"
        (mode_name bm) (mode_name cm)

let diff_cmd baseline_path candidate_path config_path =
  match load_config ~required:false config_path with
  | Error msg ->
      err "%s" msg;
      2
  | Ok config -> (
      match (Schema.read ~path:baseline_path, Schema.read ~path:candidate_path) with
      | Error msg, _ | _, Error msg ->
          err "%s" msg;
          2
      | Ok baseline, Ok candidate ->
          mode_warning baseline candidate;
          let report = Compare.run ?config ~baseline candidate in
          print_string (Compare.render report);
          if Compare.ok report then 0 else 1)

(* --- check ---------------------------------------------------------- *)

let check_metrics (config : Bench_config.t option) (candidate : Schema.run) =
  let required =
    match config with Some c -> c.Bench_config.required_metrics | None -> []
  in
  let missing = List.filter (fun key -> not (Schema.has_metric candidate key)) required in
  List.iter (fun key -> err "required metric key %S is not a field of the snapshot" key)
    missing;
  if required <> [] then
    Printf.printf "metric keys: %d/%d required keys present\n"
      (List.length required - List.length missing)
      (List.length required);
  missing = []

let check_cmd baseline_path candidate_path full config_path output =
  match load_config ~required:true config_path with
  | Error msg ->
      err "%s" msg;
      2
  | Ok config -> (
      match Schema.read ~path:baseline_path with
      | Error msg ->
          err "%s" msg;
          2
      | Ok baseline -> (
          let candidate =
            match candidate_path with
            | Some path -> Schema.read ~path
            | None ->
                let run =
                  execute ~quick:(not full) ~filter:None ~tags:[] ~verbose:true
                in
                Option.iter (fun path -> Schema.write ~path run) output;
                Ok run
          in
          match candidate with
          | Error msg ->
              err "%s" msg;
              2
          | Ok candidate ->
              mode_warning baseline candidate;
              let keys_ok = check_metrics config candidate in
              let report = Compare.run ?config ~baseline candidate in
              print_string (Compare.render report);
              if Compare.ok report && keys_ok then 0 else 1))

(* --- command line --------------------------------------------------- *)

let quick_t =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink workloads and sample counts (CI).")

let output_t =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output path (defaults to the next free $(b,BENCH_<n>.json)).")

let filter_t =
  Arg.(value & opt (some string) None & info [ "filter" ] ~docv:"SUBSTR"
         ~doc:"Only run cases whose name contains $(docv).")

let tags_t =
  Arg.(value & opt_all string [] & info [ "tag" ] ~docv:"TAG"
         ~doc:"Only run cases carrying $(docv) (repeatable; any match).")

let quiet_t = Arg.(value & flag & info [ "quiet" ] ~doc:"No per-case progress on stderr.")

let config_t =
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE"
         ~doc:"Comparator thresholds and required metric keys (bench.toml).")

let run_term =
  Term.(const run_cmd $ quick_t $ output_t $ filter_t $ tags_t $ quiet_t $ Obs_cli.term)

let run_cmd_v =
  Cmd.v
    (Cmd.info "run" ~doc:"Run the benchmark cases and write a BENCH_<n>.json file.")
    run_term

let diff_cmd_v =
  let baseline_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE")
  in
  let candidate_t =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two result files with the noise-aware comparator (strict \
          defaults unless --config is given). Exit 1 on regression or missing \
          case.")
    Term.(const diff_cmd $ baseline_t $ candidate_t $ config_t)

let check_cmd_v =
  let baseline_t =
    Arg.(required & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Committed baseline to gate against.")
  in
  let candidate_t =
    Arg.(value & opt (some string) None & info [ "candidate" ] ~docv:"FILE"
           ~doc:"Use an existing result file instead of running the benches.")
  in
  let full_t =
    Arg.(value & flag & info [ "full" ] ~doc:"Run full workloads (default: quick).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "CI gate: run the benches (quick mode), validate the required metric \
          keys as typed JSON fields, and compare against the baseline. \
          Auto-loads ./bench.toml when present.")
    Term.(const check_cmd $ baseline_t $ candidate_t $ full_t $ config_t $ output_t)

let cmd =
  let doc = "machine-readable benchmarks with a noise-aware regression gate" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "$(tname) runs the named, tagged benchmark cases of the Ckpt_bench \
         registry (kernel micro-benches, the O(n^2) chain DP at n in {50, \
         200, 800}, simulator throughput, the Monte-Carlo pool at 1/2/4/8 \
         domains) and serializes every run to the versioned BENCH_<n>.json \
         schema: per-case mean/stddev/99% CI over monotonic-clock timings, \
         run metadata (git sha, OCaml version, domain count, quick/full \
         mode) and the embedded Ckpt_obs.Metrics snapshot. Every run ends \
         by checking that the Monte-Carlo pool gives the bit-identical \
         estimate at 1, 2, 3, 4 and 8 domains. See docs/BENCHMARKS.md.";
    ]
  in
  Cmd.group (Cmd.info "ckpt-bench" ~doc ~man) [ run_cmd_v; diff_cmd_v; check_cmd_v ]

let () = exit (Cmd.eval' cmd)
