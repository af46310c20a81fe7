(* The repository benchmark. One invocation runs one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   replays the workload's generated inputs through each layer's public
   functions, each call inside a benchmark-side span, and reports the
   per-layer metrics. Every output is checked; the last line of stdout
   is the JSON result. perfbench/NOTES.md defines every metric. *)

open Common

let workloads = [ "serve-distinct"; "serve-repeat"; "mc-prop1"; "mc-chain"; "chain-1e6" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Int64.of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.mem !workload workloads, !seed, !seconds, !trace) with
  | true, Some seed, Some seconds, Some trace -> (!workload, seed, seconds, trace)
  | _ -> usage ()

let merge (a : outcome) (b : outcome) =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  a.wrong <- a.wrong + b.wrong;
  a.notes <- b.notes @ a.notes

let end_to_end workload ~seconds ~seed =
  match workload with
  | "serve-distinct" -> Wl_serve.end_to_end ~workload:`Distinct ~seconds ~seed
  | "serve-repeat" -> Wl_serve.end_to_end ~workload:`Repeat ~seconds ~seed
  | "mc-prop1" -> Wl_mc.end_to_end ~kind:`Prop1 ~seconds ~seed
  | "mc-chain" -> Wl_mc.end_to_end ~kind:`Chain ~seconds ~seed
  | _ -> Wl_chain.end_to_end ~seconds ~seed

(* Every per-layer metric is reported on every workload: the layers on
   the workload's own path are measured on its generated inputs, the
   others on a small probe generated from the same seed (see NOTES.md). *)
let per_layer workload ~seconds ~seed =
  let serve =
    match workload with
    | "serve-distinct" -> Wl_serve.layers ~workload:`Distinct ~seconds ~seed ~small:false
    | "serve-repeat" -> Wl_serve.layers ~workload:`Repeat ~seconds ~seed ~small:false
    | _ -> Wl_serve.layers ~workload:`Distinct ~seconds ~seed ~small:true
  in
  let mc =
    Wl_mc.layers ~seed
      ~main:(match workload with "mc-prop1" -> Some `Prop1 | "mc-chain" -> Some `Chain | _ -> None)
  in
  let chain = Wl_chain.layers ~seed ~n:(if workload = "chain-1e6" then Wl_chain.tasks else 100_000) in
  let o = outcome () in
  List.iter (fun (o', _) -> merge o o') [ serve; mc; chain ];
  (o, List.concat_map snd [ serve; mc; chain ])

(* Writes the spans as JSONL under .perfbench/ and loads them back
   through the ckpt-obs report pipeline. *)
let write_trace o ~workload ~seed =
  let records = Span.records () in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-%Ld.jsonl" dir workload seed in
  let text = Span.to_jsonl records in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  match Ckpt_obs.Trace_reader.parse_jsonl (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg ->
      wrong o "trace %s does not load: %s" path msg;
      []
  | Ok parsed ->
      let report = Ckpt_obs.Trace_reader.report (Ckpt_obs.Trace_reader.build parsed) in
      Printf.printf "trace: %s (%d spans; load with `ckpt-obs report %s`)\n" path
        report.Ckpt_obs.Trace_reader.spans path;
      print_string (Ckpt_obs.Trace_reader.render_report ~top:12 report);
      [ metric "trace.spans" "count" (float_of_int report.Ckpt_obs.Trace_reader.spans) ]

let json_number x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let () =
  let workload, seed, seconds, trace = parse_args () in
  let o, metrics =
    if trace then begin
      let o, metrics = with_spans (fun () -> per_layer workload ~seconds ~seed) in
      let extra = write_trace o ~workload ~seed in
      (o, metrics @ extra)
    end
    else end_to_end workload ~seconds ~seed
  in
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev o.notes);
  Printf.printf "%-40s %18s %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-40s %18.6g %-6s %d\n" m.name m.value m.unit_ m.samples)
    metrics;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> wrong o "metric %s is not finite" m.name) bad;
  let correct = o.wrong = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (Stdlib.max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number (if Float.is_finite m.value then m.value else 0.0))
              m.unit_)
          metrics));
  if not correct then exit 1
