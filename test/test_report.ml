(* Validation gate for the committed machine-readable artifacts: every
   BENCH_<n>.json at the repo root must declare the xroute-bench/<n>
   schema matching its filename and be structurally sound, and the
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

(* The match-scaling records are the committed face of the PR-6
   tentpole: pin their presence and shape in BENCH_6.json, and gate the
   two claims the NFA promotion stands on — zero decision diffs, and an
   order-of-magnitude fewer entries examined than the flat scan at the
   largest table. *)
let test_bench6_match_scaling () =
  match List.assoc_opt "BENCH_6.json" (bench_files ()) with
  | None -> Alcotest.fail "BENCH_6.json not committed at the repo root"
  | Some path -> (
    match Json.parse (read_file path) with
    | Error e -> Alcotest.fail ("BENCH_6.json: " ^ e)
    | Ok j ->
      check cs "schema" "xroute-bench/6"
        (Option.value ~default:"<missing>"
           (Option.bind (Json.member "schema" j) Json.to_str));
      let experiments =
        Option.value ~default:[]
          (Option.bind (Json.member "experiments" j) Json.to_list)
      in
      let record name =
        List.find_opt
          (fun r -> Option.bind (Json.member "name" r) Json.to_str = Some name)
          experiments
      in
      List.iter
        (fun size ->
          let name = Printf.sprintf "match-scaling-%d" size in
          match record name with
          | None -> Alcotest.fail (name ^ " record missing")
          | Some r ->
            let num field = Option.bind (Json.member field r) Json.to_num in
            List.iter
              (fun field ->
                check cb (name ^ " has positive " ^ field) true
                  (match num field with Some v -> v > 0.0 | None -> false))
              [ "xpes_stored"; "publications"; "entries_per_pub_flat";
                "entries_per_pub_tree"; "entries_per_pub_nfa"; "nfa_states";
                "flat_over_nfa" ];
            check cb (name ^ ": zero decision diffs") true (num "decision_diffs" = Some 0.0);
            check cb (name ^ ": decisions_identical") true
              (Option.bind (Json.member "decisions_identical" r) (function
                 | Json.Bool b -> Some b
                 | _ -> None)
              = Some true);
            (* the NFA must examine no more than the flat scan anywhere *)
            check cb (name ^ ": nfa examines fewer entries") true
              (match (num "entries_per_pub_nfa", num "entries_per_pub_flat") with
              | Some n, Some f -> n <= f
              | _ -> false))
        [ 1000; 10000; 100000 ];
      (match record "match-scaling" with
      | None -> Alcotest.fail "match-scaling summary record missing"
      | Some r ->
        check cb "flat/nfa ratio at the largest table is >= 10x" true
          (match Option.bind (Json.member "flat_over_nfa_at_max" r) Json.to_num with
          | Some v -> v >= 10.0
          | None -> false)))

(* The BENCH_7 saturation pin: the committed sequential burst record
   must be complete and show no publication loss. The file also holds
   the 4-domain run of the since-deleted domain pool; it stays as a
   historical record and is not pinned. *)
let test_bench7_saturation () =
  match List.assoc_opt "BENCH_7.json" (bench_files ()) with
  | None -> Alcotest.fail "BENCH_7.json not committed at the repo root"
  | Some path -> (
    match Json.parse (read_file path) with
    | Error e -> Alcotest.fail ("BENCH_7.json: " ^ e)
    | Ok j ->
      check cs "schema" "xroute-bench/7"
        (Option.value ~default:"<missing>"
           (Option.bind (Json.member "schema" j) Json.to_str));
      let experiments =
        Option.value ~default:[]
          (Option.bind (Json.member "experiments" j) Json.to_list)
      in
      let record name =
        List.find_opt
          (fun r -> Option.bind (Json.member "name" r) Json.to_str = Some name)
          experiments
      in
      let get name =
        match record name with
        | Some r -> r
        | None -> Alcotest.fail (name ^ " record missing")
      in
      let r = get "saturation-domains-1" in
      let num field = Option.bind (Json.member field r) Json.to_num in
      List.iter
        (fun field ->
          check cb ("has positive " ^ field) true
            (match num field with Some v -> v > 0.0 | None -> false))
        [ "domains"; "roots"; "published"; "delivered"; "burst_wall_ms"; "msgs_per_sec";
          "p50_hop_ms"; "p99_hop_ms" ];
      (* the subscriber holds 3 of the 4 roots: no loss means
         delivered = 3/4 of published *)
      check cb "no publication loss" true
        (match (num "published", num "delivered") with
        | Some p, Some d -> d = p *. 0.75
        | _ -> false))

(* The BENCH_8 scenario-scale pin: the committed scale series must
   reach a million clients with positive throughput and RSS figures at
   >= 3 scale points, and every scenario-differential record (the
   replay gate; the records keep their historical name) must show
   identical ledgers with zero diffs. *)
let test_bench8_scenario_scale () =
  match List.assoc_opt "BENCH_8.json" (bench_files ()) with
  | None -> Alcotest.fail "BENCH_8.json not committed at the repo root"
  | Some path -> (
    match Json.parse (read_file path) with
    | Error e -> Alcotest.fail ("BENCH_8.json: " ^ e)
    | Ok j ->
      check cs "schema" "xroute-bench/8"
        (Option.value ~default:"<missing>"
           (Option.bind (Json.member "schema" j) Json.to_str));
      let experiments =
        Option.value ~default:[]
          (Option.bind (Json.member "experiments" j) Json.to_list)
      in
      let named prefix =
        List.filter
          (fun r ->
            match Option.bind (Json.member "name" r) Json.to_str with
            | Some n ->
              String.length n >= String.length prefix
              && String.sub n 0 (String.length prefix) = prefix
            | None -> false)
          experiments
      in
      (* replay gate: all four kinds, identical ledgers, 0 diffs *)
      let diffs = named "scenario-differential-" in
      check ci "all four scenario kinds in the differential gate" 4 (List.length diffs);
      List.iter
        (fun r ->
          let name =
            Option.value ~default:"?" (Option.bind (Json.member "name" r) Json.to_str)
          in
          check cb (name ^ ": zero ledger diffs") true
            (Option.bind (Json.member "ledger_diffs" r) Json.to_num = Some 0.0);
          check cb (name ^ ": ledgers identical") true
            (Option.bind (Json.member "ledgers_identical" r) (function
               | Json.Bool b -> Some b
               | _ -> None)
            = Some true))
        diffs;
      (* scale series: >= 3 points, each with throughput and peak RSS *)
      let points = named "scenario-scale-" in
      check cb ">= 3 scale points" true (List.length points >= 3);
      List.iter
        (fun r ->
          let name =
            Option.value ~default:"?" (Option.bind (Json.member "name" r) Json.to_str)
          in
          List.iter
            (fun field ->
              check cb (name ^ " has positive " ^ field) true
                (match Option.bind (Json.member field r) Json.to_num with
                | Some v -> v > 0.0
                | None -> false))
            [ "clients"; "brokers"; "subs"; "deliveries"; "events";
              "events_per_sec"; "wall_s"; "peak_rss_bytes" ])
        points;
      check cb "the million-client point is present" true
        (List.exists
           (fun r -> Option.bind (Json.member "clients" r) Json.to_num = Some 1_000_000.0)
           points);
      (* summary record ties the two together *)
      let summary =
        List.find_opt
          (fun r -> Option.bind (Json.member "name" r) Json.to_str = Some "scenario-scale")
          experiments
      in
      match summary with
      | None -> Alcotest.fail "scenario-scale summary record missing"
      | Some r ->
        check cb "summary max_clients = 1000000" true
          (Option.bind (Json.member "max_clients" r) Json.to_num = Some 1_000_000.0);
        check cb "summary differential_gate" true
          (Option.bind (Json.member "differential_gate" r) (function
             | Json.Bool b -> Some b
             | _ -> None)
          = Some true))

(* The BENCH_10 telemetry pin: the committed sketch-error records must
   sit within the advertised relative-error bound on every distribution,
   the FEDSTATS pull must have converged with zero merge diffs at every
   overlay size (all origins present, idempotent), and the telemetry-
   overhead re-run of the BENCH_7 burst must show the health summary
   costing at most 10% throughput (off/on ratio <= 1.1). *)
let test_bench10_obs () =
  match List.assoc_opt "BENCH_10.json" (bench_files ()) with
  | None -> Alcotest.fail "BENCH_10.json not committed at the repo root"
  | Some path -> (
    match Json.parse (read_file path) with
    | Error e -> Alcotest.fail ("BENCH_10.json: " ^ e)
    | Ok j ->
      check cs "schema" "xroute-bench/10"
        (Option.value ~default:"<missing>"
           (Option.bind (Json.member "schema" j) Json.to_str));
      let experiments =
        Option.value ~default:[]
          (Option.bind (Json.member "experiments" j) Json.to_list)
      in
      let record name =
        List.find_opt
          (fun r -> Option.bind (Json.member "name" r) Json.to_str = Some name)
          experiments
      in
      let get name =
        match record name with
        | Some r -> r
        | None -> Alcotest.fail (name ^ " record missing")
      in
      let num r field = Option.bind (Json.member field r) Json.to_num in
      let flag r field =
        Option.bind (Json.member field r) (function
          | Json.Bool b -> Some b
          | _ -> None)
      in
      (* sketch accuracy: every distribution within the advertised bound *)
      List.iter
        (fun dist ->
          let name = "sketch-error-" ^ dist in
          let r = get name in
          check cb (name ^ ": positive sample count") true
            (match num r "samples" with Some v -> v > 0.0 | None -> false);
          check cb (name ^ ": within_bound") true (flag r "within_bound" = Some true);
          check cb (name ^ ": max_rel_error <= alpha") true
            (match (num r "max_rel_error", num r "alpha") with
            | Some e, Some a -> a > 0.0 && e <= a +. 1e-9
            | _ -> false))
        [ "uniform"; "exponential"; "zipf"; "latency-mix" ];
      let summary = get "sketch-error" in
      check cb "sketch summary covers all four distributions" true
        (num summary "distributions" = Some 4.0);
      check cb "sketch summary within_bound" true
        (flag summary "within_bound" = Some true);
      (* federation convergence: all origins, zero diffs, idempotent *)
      List.iter
        (fun brokers ->
          let name = Printf.sprintf "fed-convergence-%d" brokers in
          let r = get name in
          check cb (name ^ ": every origin present") true
            (num r "origins" = Some (float_of_int brokers));
          check cb (name ^ ": zero merge diffs") true (num r "merge_diffs" = Some 0.0);
          check cb (name ^ ": traffic federated") true
            (match num r "pubs_federated" with Some v -> v > 0.0 | None -> false);
          check cb (name ^ ": idempotent") true (flag r "idempotent" = Some true))
        [ 3; 5; 7 ];
      (* telemetry overhead: the acceptance gate is ratio <= 1.1 *)
      let overhead = get "telemetry-overhead" in
      List.iter
        (fun field ->
          check cb ("telemetry-overhead has positive " ^ field) true
            (match num overhead field with Some v -> v > 0.0 | None -> false))
        [ "domains"; "published"; "msgs_per_sec_on"; "msgs_per_sec_off" ];
      check cb "compared against the committed BENCH_7 number" true
        (num overhead "bench7_msgs_per_sec" = Some 13908.8);
      check cb "within_gate" true (flag overhead "within_gate" = Some true);
      check cb "telemetry costs <= 10% (off/on ratio <= 1.1)" true
        (match num overhead "ratio_off_over_on" with
        | Some r -> r <= 1.1
        | None -> false);
      check cb "ratio is consistent with the raw numbers" true
        (match
           (num overhead "ratio_off_over_on", num overhead "msgs_per_sec_off",
            num overhead "msgs_per_sec_on")
         with
        | Some r, Some off, Some on -> Float.abs (r -. (off /. on)) < 0.01
        | _ -> false))

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
          Alcotest.test_case "BENCH_6 match scaling" `Quick
            test_bench6_match_scaling;
          Alcotest.test_case "BENCH_7 saturation" `Quick
            test_bench7_saturation;
          Alcotest.test_case "BENCH_8 scenario scale" `Quick
            test_bench8_scenario_scale;
          Alcotest.test_case "BENCH_10 telemetry federation" `Quick
            test_bench10_obs;
        ] );
      ( "chrome-export",
        [
          Alcotest.test_case "golden" `Quick test_chrome_export_golden;
          Alcotest.test_case "hostile content parses" `Quick test_chrome_export_parses;
        ] );
    ]
