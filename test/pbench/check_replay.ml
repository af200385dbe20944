(* Checks the outputs of a short run of perfbench's OCaml tool: every file
   named on the command line is non-empty, and the last line of the one
   given with --json parses as a JSON object.

     check_replay.exe --json <replay-stdout> <file>... *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check_replay: " ^ m);
      exit 1)
    fmt

let () =
  match Array.to_list Sys.argv with
  | _ :: "--json" :: json :: files -> (
    List.iter
      (fun f -> if In_channel.with_open_bin f In_channel.length = 0L then fail "%s is empty" f)
      (json :: files);
    let body = String.trim (In_channel.with_open_bin json In_channel.input_all) in
    let last =
      match String.rindex_opt body '\n' with
      | Some i -> String.sub body (i + 1) (String.length body - i - 1)
      | None -> body
    in
    match Xroute_support.Json.parse last with
    | Ok (Xroute_support.Json.Obj _) -> ()
    | Ok _ -> fail "last line of %s is not a JSON object" json
    | Error e -> fail "last line of %s is not JSON: %s" json e)
  | _ -> fail "usage: check_replay.exe --json <replay-stdout> <file>..."
