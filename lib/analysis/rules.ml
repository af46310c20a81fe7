(* The built-in rule registry. Every rule here is grounded in a bug
   class this repo has already hit and fixed by hand at least once (see
   docs/LINT.md for the catalog and the history). To add a rule: write
   a [Rule.t] in this file and cons it onto [all]. *)

open Ppxlib

let name_of = Rule.lident_name

(* ------------------------------------------------------------------ *)
(* 1. float-polymorphic-compare                                        *)
(* ------------------------------------------------------------------ *)

(* Syntactic float-ness: we have no typer, so an expression counts as a
   float when its head is a float literal, a `: float` annotation, a
   well-known float constant, or an application of an operator/function
   that returns float. One floaty operand is enough to flag the
   comparison. *)

let float_idents =
  [
    "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float";
    "Float.pi"; "Float.nan"; "Float.infinity"; "Float.neg_infinity";
    "Float.max_float"; "Float.min_float"; "Float.epsilon"; "Float.zero";
    "Float.one"; "Float.minus_one";
  ]

let float_fns =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "~+.";
    "sqrt"; "exp"; "expm1"; "log"; "log10"; "log1p"; "log2";
    "sin"; "cos"; "tan"; "asin"; "acos"; "atan"; "atan2";
    "cosh"; "sinh"; "tanh"; "ceil"; "floor"; "abs_float"; "mod_float";
    "float_of_int"; "float"; "float_of_string"; "ldexp"; "copysign";
  ]

(* Functions under Float. (or Stdlib.Float.) that return float. *)
let float_module_fns =
  [
    "of_int"; "of_string"; "abs"; "neg"; "add"; "sub"; "mul"; "div"; "fma";
    "rem"; "succ"; "pred"; "sqrt"; "cbrt"; "exp"; "exp2"; "log"; "log10";
    "log2"; "expm1"; "log1p"; "pow"; "max"; "min"; "max_num"; "min_num";
    "round"; "trunc"; "ceil"; "floor"; "copy_sign"; "ldexp"; "nextafter";
  ]

let returns_float fn =
  List.mem fn float_fns
  || List.mem fn (List.map (fun f -> "Stdlib." ^ f) float_fns)
  ||
  match String.rindex_opt fn '.' with
  | None -> false
  | Some i ->
      let m = String.sub fn 0 i in
      let f = String.sub fn (i + 1) (String.length fn - i - 1) in
      (m = "Float" || m = "Stdlib.Float") && List.mem f float_module_fns

let rec is_float_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) -> (
      match name_of txt with
      | "float" | "Float.t" | "Stdlib.Float.t" -> true
      | _ -> false)
  | Ptyp_alias (t, _) -> is_float_type t
  | _ -> false

let rec floatish (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (_, t) -> is_float_type t
  | Pexp_ident { txt; _ } -> List.mem (name_of txt) float_idents
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      returns_float (name_of txt)
  | Pexp_open (_, e) -> floatish e
  | _ -> false

let poly_compare_fns =
  [ "="; "<>"; "compare"; "min"; "max" ]
  |> List.concat_map (fun f -> [ f; "Stdlib." ^ f ])

let display_fn fn =
  match fn.[0] with 'a' .. 'z' | 'A' .. 'Z' -> fn | _ -> "( " ^ fn ^ " )"

let float_polymorphic_compare : Rule.t =
  {
    name = "float-polymorphic-compare";
    doc =
      "=, <>, compare, min, max on float operands: NaN-unsound; use \
       Float.compare/Float.equal/Float.min/Float.max or an explicit epsilon";
    default_severity = Diagnostic.Error;
    check =
      (fun ctx str ->
        let visit =
          object
            inherit Ast_traverse.iter as super

            method! expression e =
              (match e.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
                  let fn = name_of txt in
                  if
                    List.mem fn poly_compare_fns
                    && List.exists (fun (_, a) -> floatish a) args
                  then
                    ctx.Rule.emit ~loc:e.pexp_loc
                      (Printf.sprintf
                         "polymorphic %s on a float operand is NaN-unsound; use \
                          Float.compare/Float.equal (or an explicit epsilon) per \
                          the NaN-reject policy"
                         (display_fn fn))
              | _ -> ());
              super#expression e
          end
        in
        visit#structure str);
  }

(* ------------------------------------------------------------------ *)
(* 2. no-wall-clock                                                    *)
(* ------------------------------------------------------------------ *)

let wall_clock_fns =
  [ "Unix.gettimeofday"; "Sys.time"; "Stdlib.Sys.time" ]

let no_wall_clock : Rule.t =
  {
    name = "no-wall-clock";
    doc =
      "Unix.gettimeofday/Sys.time outside lib/obs/clock.ml: timings must use \
       the monotonic Ckpt_obs.Clock";
    default_severity = Diagnostic.Error;
    check =
      (fun ctx str ->
        if ctx.Rule.path = "lib/obs/clock.ml" then ()
        else
          let visit =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_ident { txt; _ } when List.mem (name_of txt) wall_clock_fns ->
                    ctx.Rule.emit ~loc:e.pexp_loc
                      (Printf.sprintf
                         "%s reads the wall clock; use the monotonic \
                          Ckpt_obs.Clock (now_ns/elapsed_s/time) instead"
                         (name_of txt))
                | _ -> ());
                super#expression e
            end
          in
          visit#structure str);
  }

(* ------------------------------------------------------------------ *)
(* 3. no-global-random                                                 *)
(* ------------------------------------------------------------------ *)

let no_global_random : Rule.t =
  {
    name = "no-global-random";
    doc =
      "stdlib Random outside lib/prng: breaks the deterministic seeded-stream \
       guarantee of the parallel pool; use Ckpt_prng.Rng";
    default_severity = Diagnostic.Error;
    check =
      (fun ctx str ->
        if Rule.in_dir "lib/prng" ctx.Rule.path then ()
        else
          let message what =
            Printf.sprintf
              "%s uses the global stdlib Random; draw from a seeded Ckpt_prng.Rng \
               stream instead (determinism guarantee)"
              what
          in
          let visit =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_ident { txt; _ } when Rule.lident_head txt = "Random" ->
                    ctx.Rule.emit ~loc:e.pexp_loc (message (name_of txt))
                | _ -> ());
                super#expression e

              method! module_expr me =
                (match me.pmod_desc with
                | Pmod_ident { txt; _ } when Rule.lident_head txt = "Random" ->
                    ctx.Rule.emit ~loc:me.pmod_loc (message (name_of txt))
                | _ -> ());
                super#module_expr me
            end
          in
          visit#structure str);
  }

(* ------------------------------------------------------------------ *)
(* 4. unguarded-global-mutable                                         *)
(* ------------------------------------------------------------------ *)

let domain_safe_attr = "lint.domain_safe"

type annotation = Absent | Missing_reason | Annotated

let domain_safe_status attrs =
  List.fold_left
    (fun acc (a : attribute) ->
      if a.attr_name.txt <> domain_safe_attr then acc
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ]
          when String.trim s <> "" ->
            Annotated
        | _ -> ( match acc with Annotated -> acc | _ -> Missing_reason))
    Absent attrs

let rec strip_constraint (e : expression) =
  match e.pexp_desc with Pexp_constraint (e, _) -> strip_constraint e | _ -> e

(* Synchronization primitives are themselves mutable but exist to guard
   the rest; creating one at top level is the fix, not the bug. *)
let sync_primitives =
  [
    "Mutex.create"; "Atomic.make"; "Condition.create"; "Semaphore.Counting.make";
    "Semaphore.Binary.make"; "Domain.DLS.new_key"; "Lazy.from_fun";
  ]

let hashtbl_creators = [ "Hashtbl.create"; "Hashtbl.of_seq"; "Hashtbl.copy" ]

(* Off-heap DP scratch (Dp_tables wraps Bigarray): mutable and shared
   like any other table, but invisible to the GC and easy to mistake
   for "just numbers". A top-level one is cross-domain shared state. *)
let bigarray_creators =
  [
    "Bigarray.Array1.create"; "Bigarray.Array2.create"; "Bigarray.Array3.create";
    "Bigarray.Genarray.create"; "Bigarray.Array1.init"; "Bigarray.Array2.init";
    "Bigarray.Array3.init"; "Bigarray.Genarray.init"; "Dp_tables.floats";
    "Dp_tables.ints";
  ]

let record_mutable_field ~mutable_fields (fields : (Longident.t loc * expression) list) =
  List.find_map
    (fun (({ txt; _ } : Longident.t loc), _) ->
      let fname =
        match List.rev (Longident.flatten_exn txt) with [] -> "" | f :: _ -> f
      in
      if List.mem fname mutable_fields then Some fname else None)
    fields

let mutable_kind ~mutable_fields (e : expression) =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match name_of txt with
      | "ref" | "Stdlib.ref" -> Some "ref cell"
      | n when List.mem n sync_primitives -> None
      | n when List.mem n hashtbl_creators -> Some "hash table"
      | n when List.mem n bigarray_creators -> Some "bigarray scratch buffer"
      | _ -> None)
  | Pexp_record (fields, _) -> (
      match record_mutable_field ~mutable_fields fields with
      | Some f -> Some (Printf.sprintf "record with mutable field '%s'" f)
      | None -> None)
  | _ -> None

let is_local_hashtbl (e : expression) =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      List.mem (name_of txt) hashtbl_creators
  | _ -> false

let unguarded_global_mutable : Rule.t =
  {
    name = "unguarded-global-mutable";
    doc =
      "top-level refs/hash tables/mutable records/bigarray scratch buffers (and \
       closure-captured hash tables) in lib/ without a [@@lint.domain_safe \
       \"reason\"] annotation: cross-domain races waiting to happen";
    default_severity = Diagnostic.Error;
    check =
      (fun ctx str ->
        if not (Rule.in_dir "lib" ctx.Rule.path) then ()
        else begin
          (* Names of mutable record fields declared anywhere in this
             file: a top-level literal mentioning one is shared mutable
             state even without `ref`. *)
          let mutable_fields = ref [] in
          let collect =
            object
              inherit Ast_traverse.iter as super

              method! type_declaration td =
                (match td.ptype_kind with
                | Ptype_record labels ->
                    List.iter
                      (fun (l : label_declaration) ->
                        if l.pld_mutable = Mutable then
                          mutable_fields := l.pld_name.txt :: !mutable_fields)
                      labels
                | _ -> ());
                super#type_declaration td
            end
          in
          collect#structure str;
          let mutable_fields = !mutable_fields in
          let binding_annotation (vb : value_binding) =
            match domain_safe_status vb.pvb_attributes with
            | Absent -> domain_safe_status (strip_constraint vb.pvb_expr).pexp_attributes
            | s -> s
          in
          let report (vb : value_binding) what =
            match binding_annotation vb with
            | Annotated -> ()
            | Missing_reason ->
                ctx.Rule.emit ~loc:vb.pvb_loc
                  (Printf.sprintf
                     "[@%s] on this %s needs a non-empty reason string" domain_safe_attr
                     what)
            | Absent ->
                ctx.Rule.emit ~loc:vb.pvb_loc
                  (Printf.sprintf
                     "%s in library code is shared mutable state; guard it and \
                      annotate [@@%s \"reason\"] (mutex-held / DLS-sharded / \
                      init-before-spawn), or allowlist the module in lint.toml"
                     what domain_safe_attr)
          in
          (* Top-level (module-structure-level) bindings, including
             nested modules: any ref / hash table / mutable record. *)
          let rec check_items items =
            List.iter
              (fun (si : structure_item) ->
                match si.pstr_desc with
                | Pstr_value (_, vbs) ->
                    List.iter
                      (fun vb ->
                        match mutable_kind ~mutable_fields vb.pvb_expr with
                        | Some kind -> report vb ("top-level " ^ kind)
                        | None -> ())
                      vbs
                | Pstr_module mb -> check_module_expr mb.pmb_expr
                | Pstr_recmodule mbs ->
                    List.iter (fun mb -> check_module_expr mb.pmb_expr) mbs
                | Pstr_include { pincl_mod; _ } -> check_module_expr pincl_mod
                | _ -> ())
              items
          and check_module_expr me =
            match me.pmod_desc with
            | Pmod_structure s -> check_items s
            | Pmod_constraint (me, _) -> check_module_expr me
            | _ -> ()
          in
          check_items str;
          (* Function-local hash tables: cheap to capture in a closure
             that later runs on several domains (the Nonmemoryless
             policy caches did exactly that). Refs stay exempt here —
             local accumulators are idiomatic and overwhelmingly safe. *)
          let visit =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_let (_, vbs, _) ->
                    List.iter
                      (fun vb ->
                        if is_local_hashtbl vb.pvb_expr then
                          report vb "function-local hash table")
                      vbs
                | _ -> ());
                super#expression e
            end
          in
          visit#structure str
        end);
  }

(* ------------------------------------------------------------------ *)
(* 5. no-direct-gc-stat                                                *)
(* ------------------------------------------------------------------ *)

let gc_stat_fns =
  [ "Gc.stat"; "Gc.quick_stat"; "Stdlib.Gc.stat"; "Stdlib.Gc.quick_stat" ]

let no_direct_gc_stat : Rule.t =
  {
    name = "no-direct-gc-stat";
    doc =
      "Gc.stat/Gc.quick_stat in lib/ outside lib/obs/gc_telemetry.ml: GC \
       readings must flow through the delta-sampling Ckpt_obs.Gc_telemetry \
       so they land in the metrics registry (and Gc.stat forces a full \
       major heap walk)";
    default_severity = Diagnostic.Error;
    check =
      (fun ctx str ->
        if
          (not (Rule.in_dir "lib" ctx.Rule.path))
          || ctx.Rule.path = "lib/obs/gc_telemetry.ml"
        then ()
        else
          let visit =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_ident { txt; _ } when List.mem (name_of txt) gc_stat_fns ->
                    ctx.Rule.emit ~loc:e.pexp_loc
                      (Printf.sprintf
                         "%s reads GC counters directly; sample a \
                          Ckpt_obs.Gc_telemetry.probe instead so the deltas \
                          reach the gc.* metrics"
                         (name_of txt))
                | _ -> ());
                super#expression e
            end
          in
          visit#structure str);
  }

(* ------------------------------------------------------------------ *)
(* 6. banned-in-lib                                                    *)
(* ------------------------------------------------------------------ *)

let banned_in_lib_fns =
  let print_fns =
    [
      "print_string"; "print_endline"; "print_newline"; "print_char";
      "print_int"; "print_float"; "print_bytes";
    ]
  in
  [
    ("Obj.magic", "defeats the type system");
    ("exit", "libraries must not terminate the process; raise or return instead");
    ("Stdlib.exit", "libraries must not terminate the process; raise or return instead");
    ("Printf.printf", "stdout belongs to the CLI; emit through a sink or take a Format.formatter");
    ("Stdlib.Printf.printf", "stdout belongs to the CLI; emit through a sink or take a Format.formatter");
  ]
  @ List.concat_map
      (fun f ->
        let why = "stdout belongs to the CLI; emit through a sink or take a Format.formatter" in
        [ (f, why); ("Stdlib." ^ f, why) ])
      print_fns

(* Socket/process I/O: confined to the serve boundary module so the
   rest of lib/ stays deterministic and lint-checkable (the no-wall-clock
   rule already pins the clock part of Unix). *)
let unix_banned_message what =
  Printf.sprintf
    "%s is banned in lib/: Unix I/O is confined to the serve boundary \
     (lib/serve/net.ml); go through Ckpt_serve.Net, or allowlist the module \
     in lint.toml with a justification"
    what

let is_unix_lident txt =
  (Rule.lident_head txt = "Unix"
  || String.starts_with ~prefix:"Stdlib.Unix." (name_of txt))
  (* The clock reads have their own rule (no-wall-clock) with a more
     specific message; one finding per sin. *)
  && not (List.mem (name_of txt) wall_clock_fns)

let banned_in_lib : Rule.t =
  {
    name = "banned-in-lib";
    doc =
      "Obj.magic, exit, Printf.printf/print_* and Unix.* in lib/: library \
       code must not subvert types, kill the process, write to stdout \
       directly, or do socket/process I/O outside the lib/serve boundary";
    default_severity = Diagnostic.Error;
    check =
      (fun ctx str ->
        if not (Rule.in_dir "lib" ctx.Rule.path) then ()
        else
          let visit =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_ident { txt; _ } -> (
                    match List.assoc_opt (name_of txt) banned_in_lib_fns with
                    | Some why ->
                        ctx.Rule.emit ~loc:e.pexp_loc
                          (Printf.sprintf "%s is banned in lib/: %s" (name_of txt) why)
                    | None ->
                        if is_unix_lident txt then
                          ctx.Rule.emit ~loc:e.pexp_loc
                            (unix_banned_message (name_of txt)))
                | _ -> ());
                super#expression e

              (* [module U = Unix] would launder every later [U.socket]
                 past the ident check above. *)
              method! module_expr me =
                (match me.pmod_desc with
                | Pmod_ident { txt; _ } when is_unix_lident txt ->
                    ctx.Rule.emit ~loc:me.pmod_loc
                      (unix_banned_message (name_of txt))
                | _ -> ());
                super#module_expr me
            end
          in
          visit#structure str);
  }

(* ------------------------------------------------------------------ *)

let all : Rule.t list =
  [
    float_polymorphic_compare;
    no_wall_clock;
    no_global_random;
    unguarded_global_mutable;
    no_direct_gc_stat;
    banned_in_lib;
  ]

let find name = List.find_opt (fun (r : Rule.t) -> r.Rule.name = name) all
