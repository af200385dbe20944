(* Pins the analyzer's exit-code contract per family, in both output
   modes: 0 when no Error-severity finding was produced (warnings and
   infos alone never fail the process), 1 on any Error, identically
   with the text report and with --json. Each family is exercised at
   its cheapest configuration; the families with a mutation switch are
   also driven to their must-fail side. *)

(* Resolve the analyzer next to this test binary so the pin works both
   under `dune runtest` (cwd = test dir) and `dune exec` (cwd = root). *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/xroute_check.exe"

(* Exit code of the analyzer under [args], output discarded. *)
let code args =
  let cmd = Printf.sprintf "%s %s >/dev/null 2>&1" exe args in
  match Sys.command cmd with
  | 0 -> 0
  | n -> n

let check_both name expected args =
  Alcotest.(check int) (name ^ " (text)") expected (code args);
  Alcotest.(check int) (name ^ " (json)") expected (code (args ^ " --json -"))

(* Clean runs: family-by-family, warnings allowed, errors not expected
   on trunk. The workload family in particular always produces Warning
   findings on the default corpus — the strongest pin that warnings
   alone exit 0. *)
let test_clean_workload () = check_both "workload" 0 "--workload --quiet"

let test_clean_soundness () =
  check_both "soundness" 0 "--soundness --seeds 1 --pairs 25 --quiet"

let test_clean_audit () =
  check_both "audit" 0 "--audit --strategy with-Adv-with-Cov --seeds 1 --ops 8 --quiet"

let test_clean_obs () = check_both "obs-audit" 0 "--obs-audit --quiet"

(* Must-fail runs: every planted defect exits 1 in both modes. *)
let test_inject_soundness () =
  check_both "soundness inject" 1
    "--soundness --inject-unsound-cover --seeds 1 --pairs 25 --quiet"

let test_inject_obs () =
  check_both "obs inject" 1 "--obs-audit --inject-obs-drift --quiet"

(* Unusable invocations are 2, not 1: distinguishable from findings. *)
let test_usage_errors () =
  Alcotest.(check int) "bad dtd" 2 (code "--workload --dtd /does/not/exist --quiet");
  Alcotest.(check int) "bad seeds" 2 (code "--soundness --seeds nope --quiet")

let () =
  (* The scenario family's exit codes are pinned by the @scenario alias
     (clean rule + must-fail rule); repeating its sweep here would
     double the suite's slowest stage for no new information. *)
  Alcotest.run "exitcodes"
    [
      ( "exitcodes",
        [
          Alcotest.test_case "workload clean = 0" `Quick test_clean_workload;
          Alcotest.test_case "soundness clean = 0" `Quick test_clean_soundness;
          Alcotest.test_case "audit clean = 0" `Quick test_clean_audit;
          Alcotest.test_case "obs-audit clean = 0" `Quick test_clean_obs;
          Alcotest.test_case "soundness inject = 1" `Quick test_inject_soundness;
          Alcotest.test_case "obs inject = 1" `Quick test_inject_obs;
          Alcotest.test_case "usage errors = 2" `Quick test_usage_errors;
        ] );
    ]
