(** The software-defined-radio case study of Section VI.

    Five reconfigurable regions (one per module of the SDR pipeline of
    Vipin-Fahmy), connected in sequential order by a 64-bit bus, with
    the Table I resource requirements.  [sdr2]/[sdr3] request 2/3
    free-compatible areas for each relocatable region (carrier recovery,
    demodulator, signal decoder). *)

val matched_filter : string
val carrier_recovery : string

val module_names : string list
(** Pipeline order. *)

val relocatable : string list
(** The regions found relocatable by the paper's feasibility analysis. *)

val design : Device.Spec.t
(** The base SDR design (Table I), no relocation requests. *)

val sdr2 : Device.Spec.t
(** 2 free-compatible areas per relocatable region, as a constraint. *)

val sdr3 : Device.Spec.t
(** 3 free-compatible areas per relocatable region, as a constraint. *)

val with_copies : ?mode:Device.Spec.reloc_mode -> int -> Device.Spec.t
(** [with_copies n] requests [n] areas per relocatable region. *)

val feasibility_variant : string -> Device.Spec.t
(** The paper's feasibility test: the full design plus one hard
    free-compatible area for the named region only. *)

val table1 :
  frames:(Device.Resource.kind -> int) ->
  (string * int * int * int * int) list
(** Rows of Table I: (region, CLB tiles, BRAM tiles, DSP tiles,
    frames). *)
