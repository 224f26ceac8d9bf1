(* Experiment reports: one entry per table and figure of the paper's
   evaluation (see DESIGN.md section 4 and EXPERIMENTS.md).  Budgets are
   controlled by the RFLOOR_BENCH_BUDGET environment variable (seconds,
   default 30). *)

open Device

(* Memoized so a malformed RFLOOR_BENCH_BUDGET warns once per process,
   not once per report.  Mirrors Branch_bound.workers_from_env: garbage
   falls back to the default with a diagnostic, non-positive values
   clamp to 1 second. *)
let budget =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some b -> b
    | None ->
      let module D = Rfloor_diag.Diagnostic in
      let warn d = Format.eprintf "%a@." D.pp d in
      let default = 30. in
      let b =
        match Sys.getenv_opt "RFLOOR_BENCH_BUDGET" with
        | None -> default
        | Some s -> (
          let s = String.trim s in
          match float_of_string_opt s with
          | Some b when b > 0. && Float.is_finite b -> b
          | Some b ->
            warn
              (D.diagf ~code:"RF304" D.Warning (D.Env "RFLOOR_BENCH_BUDGET")
                 "%g is not a positive number of seconds; clamping to 1s" b);
            1.
          | None ->
            warn
              (D.diagf ~code:"RF304" D.Warning (D.Env "RFLOOR_BENCH_BUDGET")
                 "%S does not parse as seconds; using the default %gs" s
                 default);
            default)
      in
      memo := Some b;
      b

(* RFLOOR_WORKERS parallelizes every MILP solve in the reports. *)
let workers () = Milp.Branch_bound.workers_from_env ()

let line fmt = Printf.printf (fmt ^^ "\n%!")

let header title =
  line "";
  line "==== %s ====" title

let fx70t = lazy (Partition.columnar_exn Devices.virtex5_fx70t)

(* ------------------------------------------------------------------ *)

let fig1 () =
  header "Figure 1: compatible and non-compatible areas";
  let part = Partition.columnar_exn Devices.fig1 in
  let marks =
    List.map (fun (name, r) -> (r, name.[0])) Devices.fig1_areas
  in
  print_endline (Grid.render ~marks Devices.fig1);
  List.iter
    (fun (na, ra) ->
      List.iter
        (fun (nb, rb) ->
          if na < nb then
            line "  %s ~ %s : %s" na nb
              (if Compat.compatible part ra rb then "compatible"
               else "NOT compatible"))
        Devices.fig1_areas)
    Devices.fig1_areas;
  line "  (paper: A ~ B compatible, A ~ C not: same shape but different";
  line "   relative positioning of tile types)"

let fig2 () =
  header "Figure 2: columnar partitioning with forbidden areas";
  line "original device ('#' = hard processor tiles):";
  print_endline (Grid.render Devices.fig2);
  let part = Partition.columnar_exn Devices.fig2 in
  line "columnar portions after step 1 tile replacement:";
  Format.printf "%a@." Partition.pp part;
  line "Property .3 (adjacent portions differ): %b"
    (Partition.check_adjacent_types_differ part);
  line "Property .4 (ordered, disjoint, covering): %b"
    (Partition.check_cover_disjoint part)

let fig3 () =
  header "Figure 3: offset variables o(n,p) and coverage k(n,p)";
  let part = Partition.columnar_exn Devices.fig3 in
  let rect = Devices.fig3_region in
  print_endline (Grid.render ~marks:[ (rect, 'n') ] Devices.fig3);
  let spec =
    Spec.make ~name:"fig3" [ { Spec.r_name = "n"; demand = [ (Resource.Clb, 1) ] } ]
  in
  let model = Rfloor.Model.build part spec in
  let plan =
    Floorplan.make [ { Floorplan.p_region = "n"; p_rect = rect } ] []
  in
  let x = Rfloor.Model.encode model plan in
  (match Milp.Lp.validate (Rfloor.Model.lp model) x with
  | Ok () -> ()
  | Error e -> line "  MODEL INCONSISTENCY: %s" e);
  let ind = Rfloor.Model.portion_indicators model "n" x in
  line "  p      : %s"
    (String.concat " " (List.init (Array.length ind) (fun i -> string_of_int (i + 1))));
  line "  k(n,p) : %s"
    (String.concat " "
       (Array.to_list (Array.map (fun (k, _) -> string_of_int (int_of_float k)) ind)));
  line "  o(n,p) : %s"
    (String.concat " "
       (Array.to_list (Array.map (fun (_, o) -> string_of_int (int_of_float o)) ind)));
  line "  (paper: region covering portions 2-4 has k = 0 1 1 1 0 and o2 = 1)"

let table1 () =
  header "Table I: resource requirements for the SDR design";
  let frames = Grid.frames Devices.virtex5_fx70t in
  line "  %-18s %9s %10s %9s %8s" "Region" "CLB tiles" "BRAM tiles" "DSP tiles"
    "# Frames";
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun (name, c, b, d, f) ->
      let tc, tb, td, tf = !totals in
      totals := (tc + c, tb + b, td + d, tf + f);
      line "  %-18s %9d %10d %9d %8d" name c b d f)
    (Sdr.table1 ~frames);
  let tc, tb, td, tf = !totals in
  line "  %-18s %9d %10d %9d %8d" "Total" tc tb td tf;
  line "  (paper Table I: totals 104 / 5 / 11 / 4202)"

let feasibility () =
  header "Section VI feasibility analysis: one free-compatible area per region";
  let part = Lazy.force fx70t in
  let opts =
    { Search.Engine.default_options with time_limit = Some (budget ()) }
  in
  List.iter
    (fun name ->
      let spec = Sdr.feasibility_variant name in
      let r = Search.Engine.feasible ~options:opts part spec in
      let verdict =
        match (r.Search.Engine.plan, r.Search.Engine.optimal) with
        | Some _, _ -> "feasible"
        | None, true -> "INFEASIBLE (proven)"
        | None, false -> "unknown (budget)"
      in
      line "  %-18s %-20s (%d nodes, %.2fs)" name verdict r.Search.Engine.nodes
        r.Search.Engine.elapsed)
    Sdr.module_names;
  line "  (paper: no solution exists for Matched Filter and Video Decoder;";
  line "   Carrier Recovery, Demodulator, Signal Decoder are relocatable)"

type t2row = {
  algo : string;
  design : string;
  fc : string;
  wasted : string;
  note : string;
}

let table2_rows () =
  let part = Lazy.force fx70t in
  let opts =
    { Search.Engine.default_options with time_limit = Some (budget ()) }
  in
  let vf = Baselines.Vipin_fahmy.solve part Sdr.design in
  let row_vf =
    {
      algo = "[8]-style heuristic";
      design = "SDR";
      fc = "0";
      wasted =
        (match vf.Baselines.Vipin_fahmy.wasted with
        | Some w -> string_of_int w
        | None -> "-");
      note = "kernel tessellation";
    }
  in
  let run label spec =
    let r = Search.Engine.solve ~options:opts part spec in
    ( r,
      {
        algo = "PA (exact engine)";
        design = label;
        fc =
          (match r.Search.Engine.plan with
          | Some p -> string_of_int (Floorplan.fc_count p)
          | None -> "-");
        wasted =
          (match r.Search.Engine.wasted with
          | Some w -> string_of_int w
          | None -> "-");
        note = (if r.Search.Engine.optimal then "optimal" else "best found");
      } )
  in
  let r_sdr, row_sdr = run "SDR" Sdr.design in
  let row_sdr =
    { row_sdr with algo = "[10]-equivalent"; note = row_sdr.note ^ ", no relocation" }
  in
  let _, row_sdr2 = run "SDR2" Sdr.sdr2 in
  let _, row_sdr3 = run "SDR3" Sdr.sdr3 in
  (r_sdr, [ row_vf; row_sdr; row_sdr2; row_sdr3 ])

let table2 () =
  header "Table II: comparison of floorplan solutions (our device model)";
  let _, rows = table2_rows () in
  line "  %-22s %-6s %-22s %-13s %s" "Algorithm" "Design" "Free-compatible areas"
    "Wasted frames" "Note";
  List.iter
    (fun r -> line "  %-22s %-6s %-22s %-13s %s" r.algo r.design r.fc r.wasted r.note)
    rows;
  line "";
  line "  paper (real XC5VFX70T): [8] SDR 0 fc / 466 wasted; [10] SDR 0 / 306;";
  line "  PA SDR2 6 / 306; PA SDR3 9 / 346.";
  line "  Shape check: heuristic > MILP; SDR2 matches SDR; SDR3 costs a little more."

let render_solution title spec =
  header title;
  let part = Lazy.force fx70t in
  let opts =
    { Search.Engine.default_options with time_limit = Some (budget ()) }
  in
  let r = Search.Engine.solve ~options:opts part spec in
  match r.Search.Engine.plan with
  | None -> line "  no solution within budget"
  | Some plan ->
    (match Floorplan.validate part spec plan with
    | Ok () -> ()
    | Error es -> List.iter (fun e -> line "  INVALID: %s" e) es);
    line "wasted frames = %s, wire length = %s, free-compatible areas = %d%s"
      (match r.Search.Engine.wasted with Some w -> string_of_int w | None -> "-")
      (match r.Search.Engine.wirelength with
      | Some w -> Printf.sprintf "%.0f" w
      | None -> "-")
      (Floorplan.fc_count plan)
      (if r.Search.Engine.optimal then "" else " (not proven optimal)");
    print_endline (Floorplan.render part plan)

let fig4 () = render_solution "Figure 4: SDR2 floorplan (6 free-compatible areas)" Sdr.sdr2
let fig5 () = render_solution "Figure 5: SDR3 floorplan (9 free-compatible areas)" Sdr.sdr3

(* ------------------------------------------------------------------ *)
(* MILP cross-checks and ablations on reduced instances *)

let toy_spec =
  lazy
    (let r name demand = { Spec.r_name = name; demand } in
     Spec.make ~name:"toy"
       ~nets:(Spec.chain_nets ~weight:1. [ "R1"; "R2" ])
       ~relocs:[ { Spec.target = "R1"; copies = 1; mode = Spec.Hard } ]
       [
         r "R1" [ (Resource.Clb, 2); (Resource.Bram, 1) ];
         r "R2" [ (Resource.Clb, 2); (Resource.Dsp, 1) ];
       ])

let milp () =
  header "MILP engine vs exact combinatorial engine (mini device)";
  let part = Partition.columnar_exn Devices.mini in
  let spec = Lazy.force toy_spec in
  let s = Search.Engine.solve part spec in
  let opts =
    Rfloor.Solver.Options.make ~time_limit:(budget ())
      ~strategy:(Rfloor.Solver.Strategy.milp ~workers:(workers ()) ())
      ()
  in
  let m = Rfloor.Solver.solve ~options:opts part spec in
  line "  search : wasted=%s wl=%s optimal=%b"
    (match s.Search.Engine.wasted with Some w -> string_of_int w | None -> "-")
    (match s.Search.Engine.wirelength with
    | Some w -> Printf.sprintf "%.2f" w
    | None -> "-")
    s.Search.Engine.optimal;
  line "  milp O : %s" (Format.asprintf "%a" Rfloor.Solver.pp_outcome m);
  (match (s.Search.Engine.wasted, m.Rfloor.Solver.wasted) with
  | Some a, Some b when a = b -> line "  wasted frames agree: %d" a
  | Some a, Some b -> line "  MISMATCH: search %d vs milp %d" a b
  | _ -> line "  (incomparable)");
  let lp_text = Rfloor.Solver.export_lp part spec in
  line "  LP export: %d lines (CPLEX LP format; also see bench artifacts)"
    (List.length (String.split_on_char '\n' lp_text))

let ablation () =
  header "Ablations (mini device)";
  let part = Partition.columnar_exn Devices.mini in
  let spec = Lazy.force toy_spec in
  let b = budget () in
  let run label options =
    let o = Rfloor.Solver.solve ~options part spec in
    line "  %-28s %s" label (Format.asprintf "%a" Rfloor.Solver.pp_outcome o)
  in
  let base =
    Rfloor.Solver.Options.make ~time_limit:b
      ~strategy:(Rfloor.Solver.Strategy.milp ~workers:(workers ()) ())
      ()
  in
  run "O, relocation constraint" base;
  run "HO (search seed)"
    {
      base with
      strategy =
        Rfloor.Solver.Strategy.milp ~workers:(workers ())
          ~engine:(Rfloor.Solver.Ho None) ();
    };
  let soft =
    Spec.with_relocs spec [ { Spec.target = "R1"; copies = 1; mode = Spec.Soft 1. } ]
  in
  let o =
    Rfloor.Solver.solve
      ~options:{ base with objective_mode = Rfloor.Solver.Weighted Rfloor.Objective.default_weights }
      part soft
  in
  line "  %-28s %s" "relocation as a metric" (Format.asprintf "%a" Rfloor.Solver.pp_outcome o);
  run "paper-literal l bounds" { base with paper_literal_l = true };
  run "cold start (no warm seed)"
    {
      base with
      strategy =
        Rfloor.Solver.Strategy.milp ~workers:(workers ()) ~warm_start:false ();
    };
  let sa = Baselines.Annealing.solve part spec in
  line "  %-28s wasted=%s wl=%s (no relocation awareness)" "SA baseline [9]-style"
    (match sa.Baselines.Annealing.wasted with Some w -> string_of_int w | None -> "-")
    (match sa.Baselines.Annealing.wirelength with
    | Some w -> Printf.sprintf "%.2f" w
    | None -> "-")

let runtime () =
  header "Runtime: what the reserved areas buy (paper's Section I motivation)";
  let part = Lazy.force fx70t in
  let opts =
    { Search.Engine.default_options with time_limit = Some (budget ()) }
  in
  match (Search.Engine.solve ~options:opts part Sdr.sdr2).Search.Engine.plan with
  | None -> line "  no SDR2 floorplan within budget"
  | Some plan ->
    let requests =
      List.concat
        (List.mapi
           (fun i region ->
             [
               { Runtime.Reconfig.at = 50. *. float_of_int i; r_region = region; r_mode = "alt" };
               { Runtime.Reconfig.at = 500. +. (50. *. float_of_int i); r_region = region; r_mode = "base" };
             ])
           Sdr.relocatable)
    in
    let run policy =
      match Runtime.Reconfig.simulate part Sdr.sdr2 plan policy requests with
      | Ok (_, stats) -> stats
      | Error e -> failwith e
    in
    let s1 = run Runtime.Reconfig.Reload_in_place in
    let s2 = run Runtime.Reconfig.Relocate_prefetch in
    line "  %-34s total downtime %8.1f us, worst %7.1f us" "reload in place"
      s1.Runtime.Reconfig.total_downtime s1.Runtime.Reconfig.worst_downtime;
    line "  %-34s total downtime %8.1f us, worst %7.1f us"
      "prefetch into reserved areas" s2.Runtime.Reconfig.total_downtime
      s2.Runtime.Reconfig.worst_downtime;
    line "  downtime reduction: %.0fx"
      (s1.Runtime.Reconfig.total_downtime
      /. max 1e-9 s2.Runtime.Reconfig.total_downtime);
    let modes = List.map (fun r -> (r, 4)) Sdr.relocatable in
    line "  stored bitstreams (4 modes/module): %d without relocation filter, %d with"
      (Runtime.Reconfig.stored_bitstreams part plan ~modes_per_region:modes
         ~relocatable:false)
      (Runtime.Reconfig.stored_bitstreams part plan ~modes_per_region:modes
         ~relocatable:true)

let scaling () =
  header "Scaling: solve effort vs device size and relocation copies";
  (* device-width sweep: a synthetic columnar device grown by repeating
     a CLB/BRAM/CLB/DSP kernel, fixed 3-region design *)
  let clb = Resource.tile_type Resource.Clb in
  let bram = Resource.tile_type Resource.Bram in
  let dsp = Resource.tile_type Resource.Dsp in
  let device width =
    let kernel = [ clb; clb; bram; clb; clb; dsp ] in
    let rec take n l = if n = 0 then [] else
      match l with [] -> take n kernel | x :: r -> x :: take (n - 1) r in
    Grid.of_columns ~name:(Printf.sprintf "synth%d" width) ~rows:6 (take width [])
  in
  let spec =
    Spec.make ~name:"scale"
      ~nets:(Spec.chain_nets [ "A"; "B"; "C" ])
      ~relocs:[ { Spec.target = "A"; copies = 1; mode = Spec.Hard } ]
      [
        { Spec.r_name = "A"; demand = [ (Resource.Clb, 4); (Resource.Bram, 1) ] };
        { Spec.r_name = "B"; demand = [ (Resource.Clb, 3); (Resource.Dsp, 2) ] };
        { Spec.r_name = "C"; demand = [ (Resource.Clb, 6) ] };
      ]
  in
  line "  exact engine vs device width (3 regions + 1 area):";
  List.iter
    (fun width ->
      let part = Partition.columnar_exn (device width) in
      let opts =
        { Search.Engine.default_options with time_limit = Some (budget ()) }
      in
      let r = Search.Engine.solve ~options:opts part spec in
      line "    width %3d: wasted %-5s nodes %9d  %6.2fs%s" width
        (match r.Search.Engine.wasted with Some w -> string_of_int w | None -> "-")
        r.Search.Engine.nodes r.Search.Engine.elapsed
        (if r.Search.Engine.optimal then "" else "  (budget)"))
    [ 12; 18; 24; 36; 48 ];
  line "  exact engine vs requested copies per relocatable region (FX70T, SDR):";
  let part = Lazy.force fx70t in
  List.iter
    (fun copies ->
      let spec = if copies = 0 then Sdr.design else Sdr.with_copies copies in
      let opts =
        {
          Search.Engine.default_options with
          time_limit = Some (budget ());
          optimize_wirelength = false;
        }
      in
      let r = Search.Engine.solve ~options:opts part spec in
      line "    %d copies: wasted %-5s nodes %9d  %6.2fs%s" copies
        (match r.Search.Engine.wasted with Some w -> string_of_int w | None -> "-")
        r.Search.Engine.nodes r.Search.Engine.elapsed
        (if r.Search.Engine.optimal then "" else "  (budget)"))
    [ 0; 1; 2; 3 ];
  line "  MILP O vs HO (mini device, toy design):";
  let partm = Partition.columnar_exn Devices.mini in
  let toy = Lazy.force toy_spec in
  List.iter
    (fun (label, engine) ->
      let o =
        Rfloor.Solver.solve
          ~options:
            (Rfloor.Solver.Options.make ~time_limit:(budget ())
               ~strategy:
                 (Rfloor.Solver.Strategy.milp ~workers:(workers ()) ~engine ())
               ())
          partm toy
      in
      line "    %-4s nodes %6d simplex iters %8d  %6.2fs" label
        o.Rfloor.Solver.nodes o.Rfloor.Solver.simplex_iterations
        o.Rfloor.Solver.elapsed)
    [ ("O", Rfloor.Solver.O); ("HO", Rfloor.Solver.Ho None) ]

let all () =
  fig1 ();
  fig2 ();
  fig3 ();
  table1 ();
  feasibility ();
  table2 ();
  fig4 ();
  fig5 ();
  milp ();
  ablation ();
  runtime ();
  scaling ()

let by_name = function
  | "fig1" -> Some fig1
  | "fig2" -> Some fig2
  | "fig3" -> Some fig3
  | "table1" -> Some table1
  | "feasibility" -> Some feasibility
  | "table2" -> Some table2
  | "fig4" -> Some fig4
  | "fig5" -> Some fig5
  | "milp" -> Some milp
  | "ablation" -> Some ablation
  | "runtime" -> Some runtime
  | "scaling" -> Some scaling
  | "all" -> Some all
  | _ -> None

let names =
  [
    "fig1"; "fig2"; "fig3"; "table1"; "feasibility"; "table2"; "fig4"; "fig5";
    "milp"; "ablation"; "runtime"; "scaling"; "all";
  ]
