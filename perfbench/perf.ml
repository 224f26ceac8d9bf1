(* The repository benchmark: one workload per process.

     perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--spans FILE] [--scale F]
     perf.exe --list-metrics

   Untraced runs (--trace 0) measure for about S seconds and report the
   end-to-end metrics.  Traced runs (--trace 1) run a separate pass that
   records a span around every call into a layer's public functions and
   report the per-layer metrics; the spans are written as JSONL to FILE
   (default .bench_build/spans-NAME-N.jsonl).  --scale shrinks every
   workload for a smoke run.  Every output is checked; the last line of
   standard output is one JSON object, and the exit code is 1 when any
   check failed. *)

type workload = {
  name : string;
  run : Bench.result -> seed:int -> seconds:float -> unit;
  traced : Bench.result -> seed:int -> unit;
}

let workloads =
  [
    {
      name = "table2-milp";
      run = (fun r ~seed:_ ~seconds -> Table2.run_milp r ~seconds);
      traced = (fun r ~seed:_ -> Table2.traced_milp r);
    };
    {
      name = "table2-comb";
      run = (fun r ~seed:_ ~seconds -> Table2.run_comb r ~seconds);
      traced = (fun r ~seed:_ -> Table2.traced_comb r);
    };
    {
      name = "online-churn";
      run = Churn.run;
      traced = Churn.traced;
    };
  ]

let fail_usage msg =
  prerr_endline ("perf.exe: " ^ msg);
  prerr_endline
    "usage: perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1] \
     [--spans FILE] [--scale F] | --list-metrics";
  exit 2

let json_number v = Printf.sprintf "%.17g" v

let list_metrics () =
  let entry (c : Catalog.metric) =
    Printf.sprintf "{\"name\":%S,\"unit\":%S,\"better\":%S}" c.Catalog.name
      c.Catalog.unit_
      (match c.Catalog.better with `Lower -> "lower" | `Higher -> "higher")
  in
  Printf.printf "{\"end_to_end\":[%s],\"per_layer\":[%s]}\n"
    (String.concat "," (List.map entry Catalog.end_to_end))
    (String.concat "," (List.map entry Catalog.per_layer))

let emit (r : Bench.result) catalog =
  let fields =
    List.map
      (fun (c : Catalog.metric) ->
        let v =
          match Hashtbl.find_opt r.Bench.metrics c.Catalog.name with
          | Some v when Float.is_finite v -> v
          | Some _ ->
            Bench.verdict r [ c.Catalog.name ^ " is not finite" ];
            0.
          | None when catalog == Catalog.per_layer -> 0.
          | None ->
            Bench.verdict r [ c.Catalog.name ^ " was not measured" ];
            0.
        in
        Printf.printf "%-32s %16.6f %s\n" c.Catalog.name v c.Catalog.unit_;
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" c.Catalog.name
          (json_number v) c.Catalog.unit_)
      catalog
  in
  let correct = r.Bench.failed = 0 && r.Bench.attempted > 0 in
  List.iteri
    (fun i m -> if i < 20 then prerr_endline ("check failed: " ^ m))
    (List.rev r.Bench.notes);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct r.Bench.attempted r.Bench.failed (String.concat "," fields);
  correct

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--list-metrics" ] then (list_metrics (); exit 0);
  let rec parse acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((flag, v) :: acc) rest
    | a :: _ -> fail_usage ("unexpected argument " ^ a)
  in
  let opts = parse [] args in
  let get flag = List.assoc_opt flag opts in
  let num flag conv default =
    match get flag with
    | None -> default
    | Some v -> (
      match conv v with Some x -> x | None -> fail_usage ("bad " ^ flag ^ " " ^ v))
  in
  List.iter
    (fun (f, _) ->
      if not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace"; "--spans"; "--scale" ])
      then fail_usage ("unknown flag " ^ f))
    opts;
  let name = match get "--workload" with Some w -> w | None -> fail_usage "--workload is required" in
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
      fail_usage
        (Printf.sprintf "unknown workload %s (%s)" name
           (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  let seed = num "--seed" int_of_string_opt 1 in
  let seconds = num "--seconds" float_of_string_opt 10. in
  let traced = num "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) false in
  Bench.scale := num "--scale" float_of_string_opt 1.;
  let r = Bench.result () in
  let correct =
    if traced then begin
      let path =
        match get "--spans" with
        | Some p -> p
        | None ->
          (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
          Printf.sprintf ".bench_build/spans-%s-%d.jsonl" name seed
      in
      Bench.Spans.enabled := true;
      let epoch = Bench.now () in
      w.traced r ~seed;
      Bench.Spans.write path ~epoch (Bench.Spans.all ());
      prerr_endline ("spans written to " ^ path);
      emit r Catalog.per_layer
    end
    else begin
      w.run r ~seed ~seconds;
      emit r Catalog.end_to_end
    end
  in
  exit (if correct then 0 else 1)
