(* Regenerates the paper's tables and figures.

     dune exec bench/main.exe                 -- every report
     dune exec bench/main.exe -- --report X   -- one report (see --list)
     dune exec bench/main.exe -- --list
     RFLOOR_BENCH_BUDGET=60 ...               -- per-solve budget, seconds
     RFLOOR_WORKERS=4 ...                     -- parallel B&B worker domains *)

let () =
  let args = Array.to_list Sys.argv in
  let rec find_report = function
    | "--report" :: name :: _ -> Some name
    | _ :: rest -> find_report rest
    | [] -> None
  in
  if List.mem "--list" args then List.iter print_endline Reports.names
  else
    match find_report args with
    | Some name -> (
      match Reports.by_name name with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown report %s; use --list\n" name;
        exit 1)
    | None -> Reports.all ()
