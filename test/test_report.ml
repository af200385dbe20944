(* Validation gate for the machine-readable artifacts: every
   BENCH_<n>.json at the repo root must declare the xroute-bench/<n>
   schema matching its filename and be structurally sound, a bench run
   must merge into its sink without losing records, and the
   Chrome trace-event export must stay byte-stable (external tooling —
   Perfetto, chrome://tracing — parses it, so drift is an interface
   break). Tests run from _build/default/test, so the repo root is
   ../../.. unless XROUTE_ROOT overrides it. *)

open Xroute_obs
module Json = Xroute_support.Json

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

(* Walk up from the cwd to the source root: the first directory holding
   [dune-project] (dune runtest starts tests in _build/default/test,
   where dune does not copy that file; dune exec starts them wherever it
   was invoked). Keyed on [dune-project] rather than [.git] so an
   exported tree without git metadata finds its reports too. *)
let repo_root () =
  match Sys.getenv_opt "XROUTE_ROOT" with
  | Some r -> r
  | None ->
    let rec up dir n =
      if n = 0 then dir
      else if Sys.file_exists (Filename.concat dir "dune-project") then dir
      else up (Filename.dirname dir) (n - 1)
    in
    up (Sys.getcwd ()) 8

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* BENCH_<n>.json files committed at the repo root, sorted. *)
let bench_files () =
  let root = repo_root () in
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list
    |> List.filter (fun f ->
           String.length f > String.length "BENCH_.json"
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f -> (f, Filename.concat root f))

let schema_number file =
  (* digits between BENCH_ and .json *)
  let core = Filename.remove_extension file in
  String.sub core 6 (String.length core - 6)

let test_bench_reports_validate () =
  let files = bench_files () in
  check cb "at least one committed BENCH_*.json" true (files <> []);
  List.iter
    (fun (file, path) ->
      match Json.parse (read_file path) with
      | Error e -> Alcotest.fail (file ^ " is not valid JSON: " ^ e)
      | Ok j ->
        let str k = Option.bind (Json.member k j) Json.to_str in
        check cs (file ^ ": schema matches filename")
          ("xroute-bench/" ^ schema_number file)
          (Option.value ~default:"<missing>" (str "schema"));
        check cb (file ^ ": positive scale") true
          (match Option.bind (Json.member "scale" j) Json.to_num with
          | Some s -> s > 0.0
          | None -> false);
        let experiments =
          match Option.bind (Json.member "experiments" j) Json.to_list with
          | Some l -> l
          | None -> Alcotest.fail (file ^ ": experiments array missing")
        in
        check cb (file ^ ": has experiment records") true (experiments <> []);
        List.iter
          (fun record ->
            match record with
            | Json.Obj fields ->
              let name =
                match List.assoc_opt "name" fields with
                | Some (Json.Str n) when n <> "" -> n
                | _ -> Alcotest.fail (file ^ ": record without a name")
              in
              List.iter
                (fun (k, v) ->
                  if k <> "name" then
                    check cb
                      (Printf.sprintf "%s: %s.%s is a scalar" file name k)
                      true
                      (match v with
                      | Json.Num _ | Json.Bool _ -> true
                      | _ -> false))
                fields
            | _ -> Alcotest.fail (file ^ ": experiment record is not an object"))
          experiments)
    (bench_files ())

(* The seeded latency-breakdown records are the committed face of this
   PR's tentpole; pin their presence and shape in BENCH_5.json. *)
let test_bench5_latency_breakdown () =
  match List.assoc_opt "BENCH_5.json" (bench_files ()) with
  | None -> Alcotest.fail "BENCH_5.json not committed at the repo root"
  | Some path -> (
    match Json.parse (read_file path) with
    | Error e -> Alcotest.fail ("BENCH_5.json: " ^ e)
    | Ok j ->
      let experiments =
        Option.value ~default:[]
          (Option.bind (Json.member "experiments" j) Json.to_list)
      in
      let record name =
        List.find_opt
          (fun r ->
            Option.bind (Json.member "name" r) Json.to_str = Some name)
          experiments
      in
      List.iter
        (fun strategy ->
          let name = "latency-breakdown-" ^ strategy in
          match record name with
          | None -> Alcotest.fail (name ^ " record missing")
          | Some r ->
            List.iter
              (fun field ->
                check cb (name ^ " has " ^ field) true
                  (match Option.bind (Json.member field r) Json.to_num with
                  | Some v -> v >= 0.0
                  | None -> false))
              [ "e2e_n"; "e2e_p50_ms"; "e2e_p95_ms"; "e2e_p99_ms";
                "prt_match_n"; "prt_match_p50_ms"; "transmit_p50_ms";
                "link_p50_ms"; "deliver_p50_ms" ])
        [ "no-Adv-no-Cov"; "with-Adv-with-Cov"; "with-Adv-with-CovPM" ])

(* The report merge gate. A dune rule seeds a sink with a foreign record
   and a stale fig6 record, then runs every experiment at scale 0.01
   into it (bench/dune). The run must leave one record per experiment at
   that scale, replace the stale record whole, keep the foreign record
   exactly as seeded and keep the sink's top-level scale. *)
let kept_experiments =
  [ "fig6"; "fig7"; "fig8"; "table1"; "table2"; "table3"; "fig9"; "fig10"; "fig11";
    "latency-breakdown"; "fault-recovery"; "ablation-exact-cover"; "ablation-yfilter";
    "ablation-srt" ]

let test_bench_run_merges () =
  let bench_file f =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "../bench" f)
  in
  let load f =
    match Json.parse (read_file (bench_file f)) with
    | Ok j -> j
    | Error e -> Alcotest.fail (f ^ " is not valid JSON: " ^ e)
  in
  let seed = load "report_seed.json" and run = load "report_run.json" in
  let records j =
    Option.value ~default:[] (Option.bind (Json.member "experiments" j) Json.to_list)
  in
  let name_of r = Option.value ~default:"" (Option.bind (Json.member "name" r) Json.to_str) in
  let named j n = List.filter (fun r -> name_of r = n) (records j) in
  let num r k = Option.bind (Json.member k r) Json.to_num in
  check cs "schema" "xroute-bench/5"
    (Option.value ~default:"<missing>" (Option.bind (Json.member "schema" run) Json.to_str));
  check cb "top-level scale kept" true (num run "scale" = num seed "scale");
  List.iter
    (fun name ->
      match named run name with
      | [ r ] ->
        check cb (name ^ " at scale 0.01") true (num r "scale" = Some 0.01);
        check cb (name ^ " has wall_ms") true (num r "wall_ms" <> None)
      | l -> Alcotest.failf "%s: %d records, want 1" name (List.length l))
    kept_experiments;
  check cb "foreign record untouched" true
    (named seed "foreign-record" <> [] && named run "foreign-record" = named seed "foreign-record");
  check cb "stale fig6 record replaced" true
    (List.for_all (fun r -> Json.member "stale_field" r = None) (named run "fig6"));
  List.iter
    (fun r ->
      let name = name_of r in
      check cb (name ^ ": expected record") true
        (name = "foreign-record" || List.mem name kept_experiments
        || String.starts_with ~prefix:"latency-breakdown-" name))
    (records run)

(* ---------------- Chrome trace-event golden ---------------- *)

(* Byte-exact golden: one recorded span, every field populated. *)
let test_chrome_export_golden () =
  let t = Span.create () in
  ignore
    (Span.record t ~trace:7 ~name:"hop" ~broker:2 ~meta:[ ("ops", "3") ] ~start:1.5
       ~stop:2.5 ());
  let expect =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"hop\",\"cat\":\"xroute\",\
     \"ph\":\"X\",\"ts\":1500.000,\"dur\":1000.000,\"pid\":2,\"tid\":7,\
     \"args\":{\"id\":\"1\",\"ops\":\"3\"}}]}"
  in
  check cs "chrome export byte-stable" expect (Span.to_chrome (Span.to_list t))

(* And structurally: a multi-span tree with hostile content must still
   parse as JSON with the trace-event fields Perfetto requires. *)
let test_chrome_export_parses () =
  let t = Span.create () in
  let root = Span.start_span t ~trace:7 ~name:"pub" ~broker:(-1) ~at:0.0 () in
  let hop =
    Span.start_span t ~parent:root.Span.id ~trace:7 ~name:"hop" ~broker:0 ~at:0.5 ()
  in
  ignore
    (Span.record t ~parent:hop.Span.id ~trace:7 ~name:"queue \"q\"\nnasty" ~broker:0
       ~meta:[ ("srt_ops", "3"); ("quote", "\"\\") ]
       ~start:0.5 ~stop:1.0 ());
  Span.finish hop ~at:2.0;
  Span.extend root ~at:2.0;
  match Json.parse (Span.to_chrome (Span.to_list t)) with
  | Error e -> Alcotest.fail ("chrome export is not valid JSON: " ^ e)
  | Ok j ->
    check cb "displayTimeUnit is ms" true
      (Option.bind (Json.member "displayTimeUnit" j) Json.to_str = Some "ms");
    let events =
      Option.value ~default:[] (Option.bind (Json.member "traceEvents" j) Json.to_list)
    in
    check ci "one event per span" 3 (List.length events);
    List.iter
      (fun e ->
        check cb "complete event" true
          (Option.bind (Json.member "ph" e) Json.to_str = Some "X");
        List.iter
          (fun k -> check cb (k ^ " is numeric") true
              (Option.bind (Json.member k e) Json.to_num <> None))
          [ "ts"; "dur"; "pid"; "tid" ];
        check cb "args object with the span id" true
          (match Json.member "args" e with
          | Some args -> Option.bind (Json.member "id" args) Json.to_str <> None
          | None -> false))
      events;
    (* microsecond timestamps: the hop [0.5, 2.0] ms is 500 .. 1500 us *)
    let hop_event =
      List.find
        (fun e -> Option.bind (Json.member "name" e) Json.to_str = Some "hop")
        events
    in
    check cb "ts in microseconds" true
      (Option.bind (Json.member "ts" hop_event) Json.to_num = Some 500.0);
    check cb "dur in microseconds" true
      (Option.bind (Json.member "dur" hop_event) Json.to_num = Some 1500.0)

let () =
  Alcotest.run "report"
    [
      ( "bench-json",
        [
          Alcotest.test_case "committed reports validate" `Quick
            test_bench_reports_validate;
          Alcotest.test_case "BENCH_5 latency breakdown" `Quick
            test_bench5_latency_breakdown;
          Alcotest.test_case "run merges into a seeded sink" `Quick
            test_bench_run_merges;
        ] );
      ( "chrome-export",
        [
          Alcotest.test_case "golden" `Quick test_chrome_export_golden;
          Alcotest.test_case "hostile content parses" `Quick test_chrome_export_parses;
        ] );
    ]
