(* ckpt-lint: config parser, per-rule fixtures, golden JSON, and the
   severity/allowlist machinery. The fixtures under lint_fixtures/lib/
   are parse-only inputs — they never compile and each bad_* file
   triggers exactly one rule, so a regression points at its rule. *)

module Config = Ckpt_analysis.Config
module Diagnostic = Ckpt_analysis.Diagnostic
module Driver = Ckpt_analysis.Driver
module Output = Ckpt_analysis.Output
module Rule = Ckpt_analysis.Rule
module Rules = Ckpt_analysis.Rules

let fixtures_root = "lint_fixtures"

let run ?(config = Config.default) paths =
  Driver.run ~config ~rules:Rules.all ~root:fixtures_root paths

let rules_hit diags =
  List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) diags
  |> List.sort_uniq String.compare

(* --- config parser -------------------------------------------------- *)

let test_config_parse () =
  let config =
    Config.parse_string
      {|
# top comment
[lint]
roots = ["lib", "bin"]
exclude = [
  "test/lint_fixtures",  # trailing comment
]

[rule.banned-in-lib]
severity = "warning"
allow = ["lib/obs/sink.ml", "lib/experiments"]

[rule.no-wall-clock]
severity = "off"
|}
  in
  Alcotest.(check (list string)) "roots" [ "lib"; "bin" ] config.Config.roots;
  Alcotest.(check (list string)) "exclude" [ "test/lint_fixtures" ] config.Config.exclude;
  Alcotest.(check bool) "allow file"
    true
    (Config.allowed config ~rule:"banned-in-lib" "lib/obs/sink.ml");
  Alcotest.(check bool) "allow subtree"
    true
    (Config.allowed config ~rule:"banned-in-lib" "lib/experiments/common.ml");
  Alcotest.(check bool) "allow does not leak across rules"
    false
    (Config.allowed config ~rule:"no-global-random" "lib/obs/sink.ml");
  Alcotest.(check bool) "prefix match stops at '/' boundary"
    false
    (Config.allowed config ~rule:"banned-in-lib" "lib/obs/sink.ml.backup");
  (match Config.severity config ~rule:"banned-in-lib" ~default:Diagnostic.Error with
  | Some Diagnostic.Warning -> ()
  | _ -> Alcotest.fail "severity override to warning not applied");
  (match Config.severity config ~rule:"no-wall-clock" ~default:Diagnostic.Error with
  | None -> ()
  | Some _ -> Alcotest.fail "severity off should disable the rule");
  match Config.severity config ~rule:"no-global-random" ~default:Diagnostic.Error with
  | Some Diagnostic.Error -> ()
  | _ -> Alcotest.fail "unconfigured rule keeps its default severity"

let test_config_rejects () =
  let rejects label contents =
    match Config.parse_string contents with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (label ^ ": expected a parse failure")
  in
  rejects "unknown section" "[surprise]\n";
  rejects "unknown key in [lint]" "[lint]\nroot = [\"lib\"]\n";
  rejects "unknown key in rule" "[rule.banned-in-lib]\nseverty = \"error\"\n";
  rejects "bad severity" "[rule.banned-in-lib]\nseverity = \"fatal\"\n";
  rejects "key outside section" "roots = [\"lib\"]\n";
  rejects "unterminated array" "[lint]\nroots = [\"lib\",\n"

(* --- per-rule fixtures ---------------------------------------------- *)

let check_rule rule ~bad ~bad_count ~good () =
  let bad_diags = run [ "lib/" ^ bad ] in
  Alcotest.(check int)
    (Printf.sprintf "%s finding count in %s" rule bad)
    bad_count (List.length bad_diags);
  Alcotest.(check (list string))
    (Printf.sprintf "only %s fires in %s" rule bad)
    [ rule ] (rules_hit bad_diags);
  Alcotest.(check int)
    (Printf.sprintf "%s is clean" good)
    0
    (List.length (run [ "lib/" ^ good ]))

let test_float_compare =
  check_rule "float-polymorphic-compare" ~bad:"bad_float_compare.ml" ~bad_count:3
    ~good:"good_float_compare.ml"

let test_wall_clock =
  check_rule "no-wall-clock" ~bad:"bad_wall_clock.ml" ~bad_count:2
    ~good:"good_wall_clock.ml"

let test_global_random =
  check_rule "no-global-random" ~bad:"bad_global_random.ml" ~bad_count:3
    ~good:"good_global_random.ml"

let test_global_mutable =
  check_rule "unguarded-global-mutable" ~bad:"bad_global_mutable.ml" ~bad_count:6
    ~good:"good_global_mutable.ml"

let test_gc_stat =
  check_rule "no-direct-gc-stat" ~bad:"bad_gc_stat.ml" ~bad_count:2
    ~good:"good_gc_stat.ml"

let test_banned =
  check_rule "banned-in-lib" ~bad:"bad_banned.ml" ~bad_count:5 ~good:"good_banned.ml"

let test_parse_error () =
  match run [ "lib/bad_parse_error.ml" ] with
  | [ d ] ->
      Alcotest.(check string) "rule" "parse-error" d.Diagnostic.rule;
      Alcotest.(check int) "line" 1 d.Diagnostic.line
  | diags ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one parse-error diagnostic, got %d"
           (List.length diags))

(* --- severity and allowlist machinery ------------------------------- *)

let test_allowlist_and_severity () =
  let config =
    Config.parse_string
      {|
[rule.banned-in-lib]
allow = ["lib/bad_banned.ml"]

[rule.no-global-random]
severity = "warning"

[rule.no-wall-clock]
severity = "off"
|}
  in
  Alcotest.(check int) "allowlisted file reports nothing"
    0
    (List.length (run ~config [ "lib/bad_banned.ml" ]));
  (match run ~config [ "lib/bad_global_random.ml" ] with
  | [] -> Alcotest.fail "downgraded rule should still report"
  | diags ->
      Alcotest.(check bool) "downgraded to warnings"
        true
        (List.for_all
           (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Warning)
           diags);
      Alcotest.(check bool) "warnings are not errors" false (Driver.has_errors diags));
  Alcotest.(check int) "rule switched off reports nothing"
    0
    (List.length (run ~config [ "lib/bad_wall_clock.ml" ]))

let test_exclude () =
  let config = Config.parse_string "[lint]\nexclude = [\"lib\"]\n" in
  Alcotest.(check int) "excluded subtree yields no diagnostics"
    0
    (List.length (run ~config [ "lib" ]))

(* --- whole-tree golden ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_json () =
  let diags = run [ "lib" ] in
  let got = Output.render ~format:Output.Json diags ^ "\n" in
  let expected = read_file (Filename.concat fixtures_root "expected.json") in
  Alcotest.(check string) "fixture tree JSON matches the golden file" expected got

let test_text_summary () =
  let diags = run [ "lib/bad_banned.ml" ] in
  let text = Output.render ~format:Output.Text diags in
  Alcotest.(check bool) "summary line present"
    true
    (String.ends_with ~suffix:"ckpt-lint: 5 error(s), 0 warning(s)" text);
  Alcotest.(check int) "clean summary"
    0
    (List.length (run [ "lib/good_banned.ml" ]))

let suite =
  [
    Alcotest.test_case "config: parse and query" `Quick test_config_parse;
    Alcotest.test_case "config: rejects malformed input" `Quick test_config_rejects;
    Alcotest.test_case "rule: float-polymorphic-compare" `Quick test_float_compare;
    Alcotest.test_case "rule: no-wall-clock" `Quick test_wall_clock;
    Alcotest.test_case "rule: no-global-random" `Quick test_global_random;
    Alcotest.test_case "rule: unguarded-global-mutable" `Quick test_global_mutable;
    Alcotest.test_case "rule: no-direct-gc-stat" `Quick test_gc_stat;
    Alcotest.test_case "rule: banned-in-lib" `Quick test_banned;
    Alcotest.test_case "driver: parse error diagnostic" `Quick test_parse_error;
    Alcotest.test_case "config: allowlist and severity overrides" `Quick
      test_allowlist_and_severity;
    Alcotest.test_case "config: exclude prunes the walk" `Quick test_exclude;
    Alcotest.test_case "golden: fixture tree JSON" `Quick test_golden_json;
    Alcotest.test_case "output: text summary" `Quick test_text_summary;
  ]
