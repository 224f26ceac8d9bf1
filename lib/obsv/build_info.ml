(* Binary identity and uptime, so every scrape says what produced it. *)

module R = Rfloor_metrics.Registry

let version = "1.0.0"

(* Cached: the gauge is re-registered per registry, not per scrape, and
   shelling out once per process is plenty.  RFLOOR_GIT_REV (set by CI
   and the bench harness) wins over asking git, which keeps scrapes
   honest inside unpacked release tarballs. *)
let git_rev =
  lazy
    (match Sys.getenv_opt "RFLOOR_GIT_REV" with
    | Some r when String.trim r <> "" -> String.trim r
    | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        if line = "" then "unknown" else line
      with _ -> "unknown"))

let started_at = Rfloor_trace.clock ()

let uptime () = Rfloor_trace.clock () -. started_at

let register reg =
  let info =
    R.gauge reg ~help:"Build identity (value is always 1; the labels carry it)"
      ~labels:
        [
          ("version", version);
          ("ocaml", Sys.ocaml_version);
          ("git", Lazy.force git_rev);
        ]
      "rfloor_build_info"
  in
  R.Gauge.set info 1.;
  ignore (R.gauge reg ~help:"Seconds since process start" "rfloor_uptime_seconds")

let touch_uptime reg =
  R.Gauge.set
    (R.gauge reg ~help:"Seconds since process start" "rfloor_uptime_seconds")
    (uptime ())
