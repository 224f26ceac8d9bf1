(* Seeded input generator.  The program under test only ever sees what
   it produces: an arrival/departure trace for the online workload. *)

module P = Bench.Prng

(* ---------------- online churn ---------------- *)

(* A steady-state runtime manager's traffic on a device: a module
   departs once its lifetime (uniform over 6-14 events) has run out, and
   otherwise the next event is an arrival.  CLB demand is in
   [clb/16, clb/16 + clb/6) of the usable CLB tiles, 1-2 BRAM tiles are
   added with p=1/3 and one DSP tile with p=1/4.  The library's own
   generator instead fills the device and then rejects almost every
   arrival. *)
let churn ~seed ~events part =
  let rng = P.make seed in
  let usable = Device.Grid.usable_tiles part.Device.Partition.grid in
  let avail k = Device.Resource.demand_get usable k in
  let clb = avail Device.Resource.Clb in
  let demand () =
    let d = [ (Device.Resource.Clb, (clb / 16) + P.int rng (max 1 (clb / 6))) ] in
    let d =
      if avail Device.Resource.Bram > 0 && P.chance rng (1. /. 3.) then
        d @ [ (Device.Resource.Bram, P.range rng 1 2) ]
      else d
    in
    if avail Device.Resource.Dsp > 0 && P.chance rng 0.25 then
      d @ [ (Device.Resource.Dsp, 1) ]
    else d
  in
  (* live modules as (due event, name), earliest first *)
  let live = ref [] in
  List.init events (fun i ->
      match !live with
      | (due, name) :: rest when due <= i ->
        live := rest;
        Rfloor_online.Workload.Depart { d_name = name }
      | _ ->
        let name = Printf.sprintf "m%d" i in
        live := List.merge compare [ (i + P.range rng 6 14, name) ] !live;
        Rfloor_online.Workload.Arrive { a_name = name; a_demand = demand () })
