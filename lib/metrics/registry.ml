(* Concurrency-safe metrics registry.  See registry.mli for the cost
   model: null handles are Noop constructors (one load-and-branch per
   update), live handles update atomics lock-free, and only
   registration/snapshot take the mutex.  All synchronization goes
   through the instrumented Rfloor_sync layer. *)

module Sync = Rfloor_sync

(* Float accumulation without a lock: CAS on the bit pattern. *)
let add_float_bits a x =
  let rec go () =
    let cur = Sync.Atomic.get a in
    let next = Int64.bits_of_float (Int64.float_of_bits cur +. x) in
    if not (Sync.Atomic.compare_and_set a cur next) then go ()
  in
  go ()

module Counter = struct
  type t = Noop | C of int Sync.Atomic.t

  let incr = function Noop -> () | C a -> Sync.Atomic.incr a

  let add t n =
    match t with
    | Noop -> ()
    | C a -> if n > 0 then ignore (Sync.Atomic.fetch_and_add a n)

  let value = function Noop -> 0 | C a -> Sync.Atomic.get a
end

module Gauge = struct
  type t = Noop | G of int64 Sync.Atomic.t

  let set t v =
    match t with Noop -> () | G a -> Sync.Atomic.set a (Int64.bits_of_float v)

  let value = function
    | Noop -> 0.
    | G a -> Int64.float_of_bits (Sync.Atomic.get a)
end

module Histogram = struct
  type t =
    | Noop
    | H of {
        bounds : float array; (* finite, strictly increasing *)
        buckets : int Sync.Atomic.t array; (* length bounds + 1; last = +Inf *)
        total : int Sync.Atomic.t;
        sum_bits : int64 Sync.Atomic.t;
      }

  let bucket_index bounds v =
    (* first bound >= v; linear scan — bucket arrays are short (< 16) *)
    let n = Array.length bounds in
    let i = ref 0 in
    while !i < n && v > bounds.(!i) do
      incr i
    done;
    !i

  let observe t v =
    match t with
    | Noop -> ()
    | H h ->
      Sync.Atomic.incr h.buckets.(bucket_index h.bounds v);
      Sync.Atomic.incr h.total;
      add_float_bits h.sum_bits v

  let count = function Noop -> 0 | H h -> Sync.Atomic.get h.total
  let sum = function Noop -> 0. | H h -> Int64.float_of_bits (Sync.Atomic.get h.sum_bits)
end

let seconds_buckets =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10.; 60. |]

let count_buckets = [| 10.; 30.; 100.; 300.; 1000.; 3000.; 10_000.; 100_000. |]

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t

type series = {
  s_name : string;
  s_labels : (string * string) list; (* sorted by key *)
  s_help : string;
  s_instrument : instrument;
}

type live = { m : Sync.Mutex.t; series : series list Sync.Shared.t (* newest first *) }
type t = Null | Live of live

let null = Null
let create () = Live
    { m = Sync.Mutex.create ~name:"metrics.registry" ();
      series = Sync.Shared.make ~name:"metrics.registry.series" [] }
let live = function Null -> false | Live _ -> true

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Find-or-create under the registry mutex.  [same] checks that a
   pre-existing instrument is compatible with the request. *)
let register reg name labels help same fresh wrap =
  match reg with
  | Null -> None
  | Live r ->
    if name = "" then invalid_arg "Registry: empty metric name";
    let labels = norm_labels labels in
    Sync.Mutex.lock r.m;
    Fun.protect ~finally:(fun () -> Sync.Mutex.unlock r.m) @@ fun () ->
    (match
       List.find_opt
         (fun s -> s.s_name = name && s.s_labels = labels)
         (Sync.Shared.get r.series)
     with
    | Some s -> (
      match same s.s_instrument with
      | Some v -> Some v
      | None ->
        invalid_arg
          (Printf.sprintf
             "Registry: %s already registered as a %s with different kind or \
              buckets"
             name (kind_name s.s_instrument)))
    | None ->
      (* Prometheus semantics: one kind (and, for histograms, one
         bucket layout) per metric name across all label sets *)
      (match
         List.find_opt (fun s -> s.s_name = name) (Sync.Shared.get r.series)
       with
      | Some s when same s.s_instrument = None ->
        invalid_arg
          (Printf.sprintf
             "Registry: %s already registered as a %s with different kind or \
              buckets"
             name (kind_name s.s_instrument))
      | _ -> ());
      let v = fresh () in
      Sync.Shared.set r.series
        ({ s_name = name; s_labels = labels; s_help = help;
           s_instrument = wrap v }
        :: Sync.Shared.get r.series);
      Some v)

let counter reg ?(help = "") ?(labels = []) name =
  match
    register reg name labels help
      (function I_counter c -> Some c | _ -> None)
      (fun () -> Counter.C (Sync.Atomic.make 0))
      (fun c -> I_counter c)
  with
  | Some c -> c
  | None -> Counter.Noop

let gauge reg ?(help = "") ?(labels = []) name =
  match
    register reg name labels help
      (function I_gauge g -> Some g | _ -> None)
      (fun () -> Gauge.G (Sync.Atomic.make (Int64.bits_of_float 0.)))
      (fun g -> I_gauge g)
  with
  | Some g -> g
  | None -> Gauge.Noop

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Registry.histogram: empty bucket list";
  for i = 0 to n - 1 do
    if not (Float.is_finite bounds.(i)) then
      invalid_arg "Registry.histogram: non-finite bucket bound";
    if i > 0 && bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Registry.histogram: bucket bounds must strictly increase"
  done

let histogram reg ?(help = "") ?(labels = []) ?(buckets = seconds_buckets) name =
  match
    register reg name labels help
      (function
        | I_histogram (Histogram.H { bounds; _ } as hist) when bounds = buckets ->
          Some hist
        | I_histogram _ -> None
        | _ -> None)
      (fun () ->
        check_bounds buckets;
        Histogram.H
          {
            bounds = Array.copy buckets;
            buckets = Array.init (Array.length buckets + 1) (fun _ -> Sync.Atomic.make 0);
            total = Sync.Atomic.make 0;
            sum_bits = Sync.Atomic.make (Int64.bits_of_float 0.);
          })
      (fun h -> I_histogram h)
  with
  | Some h -> h
  | None -> Histogram.Noop

(* ------------------------------------------------------------------ *)
(* Snapshots *)

module Snapshot = struct
  type metric =
    | Counter of { name : string; help : string; labels : (string * string) list; value : int }
    | Gauge of { name : string; help : string; labels : (string * string) list; value : float }
    | Histogram of {
        name : string;
        help : string;
        labels : (string * string) list;
        buckets : (float * int) array;
        sum : float;
        count : int;
      }

  type t = metric list

  let name = function
    | Counter c -> c.name
    | Gauge g -> g.name
    | Histogram h -> h.name

  let labels = function
    | Counter c -> c.labels
    | Gauge g -> g.labels
    | Histogram h -> h.labels
end

let snapshot reg =
  match reg with
  | Null -> []
  | Live r ->
    let series =
      Sync.Mutex.lock r.m;
      let s = Sync.Shared.get r.series in
      Sync.Mutex.unlock r.m;
      s
    in
    let one s =
      match s.s_instrument with
      | I_counter c ->
        Snapshot.Counter
          { name = s.s_name; help = s.s_help; labels = s.s_labels;
            value = Counter.value c }
      | I_gauge g ->
        Snapshot.Gauge
          { name = s.s_name; help = s.s_help; labels = s.s_labels;
            value = Gauge.value g }
      | I_histogram Histogram.Noop ->
        (* unreachable: live registries never store Noop *)
        Snapshot.Histogram
          { name = s.s_name; help = s.s_help; labels = s.s_labels;
            buckets = [||]; sum = 0.; count = 0 }
      | I_histogram (Histogram.H { bounds; buckets = cells; sum_bits; _ }) ->
        (* one consistent read per cell, then cumulate Prometheus-style;
           the reported count is the sum of the same reads so the final
           cumulative bucket always equals it *)
        let nb = Array.length bounds in
        let raw = Array.map Sync.Atomic.get cells in
        let total = Array.fold_left ( + ) 0 raw in
        let cum = ref 0 in
        let buckets =
          Array.init (nb + 1) (fun i ->
              cum := !cum + raw.(i);
              ((if i < nb then bounds.(i) else infinity), !cum))
        in
        Snapshot.Histogram
          { name = s.s_name; help = s.s_help; labels = s.s_labels;
            buckets; sum = Int64.float_of_bits (Sync.Atomic.get sum_bits);
            count = total }
    in
    List.sort
      (fun a b ->
        match String.compare (Snapshot.name a) (Snapshot.name b) with
        | 0 -> compare (Snapshot.labels a) (Snapshot.labels b)
        | c -> c)
      (List.map one series)

let schema_version = "rfloor-metrics/1"

(* ---- Prometheus text exposition ---- *)

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
            labels))

let prom_float f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else Rfloor_json.num_to_string f

let to_prometheus (snap : Snapshot.t) =
  let b = Buffer.create 1024 in
  let last_header = ref "" in
  let header name kind help =
    if !last_header <> name then begin
      last_header := name;
      if help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (m : Snapshot.metric) ->
      match m with
      | Snapshot.Counter c ->
        header c.name "counter" c.help;
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" c.name (prom_labels c.labels) c.value)
      | Snapshot.Gauge g ->
        header g.name "gauge" g.help;
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" g.name (prom_labels g.labels)
             (prom_float g.value))
      | Snapshot.Histogram h ->
        header h.name "histogram" h.help;
        Array.iter
          (fun (le, cum) ->
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" h.name
                 (prom_labels (h.labels @ [ ("le", prom_float le) ]))
                 cum))
          h.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" h.name (prom_labels h.labels)
             (prom_float h.sum));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" h.name (prom_labels h.labels)
             h.count))
    snap;
  Buffer.contents b

(* ---- versioned JSON ---- *)

let labels_json labels =
  Rfloor_json.Obj (List.map (fun (k, v) -> (k, Rfloor_json.Str v)) labels)

let to_json_value (snap : Snapshot.t) =
  let open Rfloor_json in
  let metric (m : Snapshot.metric) =
    match m with
    | Snapshot.Counter c ->
      Obj
        [ ("name", Str c.name); ("kind", Str "counter");
          ("help", Str c.help); ("labels", labels_json c.labels);
          ("value", Num (float_of_int c.value)) ]
    | Snapshot.Gauge g ->
      Obj
        [ ("name", Str g.name); ("kind", Str "gauge");
          ("help", Str g.help); ("labels", labels_json g.labels);
          ("value", if Float.is_finite g.value then Num g.value else Null) ]
    | Snapshot.Histogram h ->
      Obj
        [ ("name", Str h.name); ("kind", Str "histogram");
          ("help", Str h.help); ("labels", labels_json h.labels);
          ( "buckets",
            Arr
              (Array.to_list
                 (Array.map
                    (fun (le, cum) ->
                      Arr
                        [ (if Float.is_finite le then Num le else Null);
                          Num (float_of_int cum) ])
                    h.buckets)) );
          ("sum", if Float.is_finite h.sum then Num h.sum else Null);
          ("count", Num (float_of_int h.count)) ]
  in
  Obj
    [ ("schema", Str schema_version);
      ("metrics", Arr (List.map metric snap)) ]

let to_json snap = Rfloor_json.to_string (to_json_value snap)

(* ---- validation ---- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let validate_labels v =
  match Rfloor_json.member "labels" v with
  | None -> Ok []
  | Some (Rfloor_json.Obj fields) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, Rfloor_json.Str s) :: rest -> go ((k, s) :: acc) rest
      | (k, _) :: _ -> Error (Printf.sprintf "label %S must be a string" k)
    in
    go [] fields
  | Some _ -> Error "field \"labels\" must be an object"

let validate_metric v =
  let* name = Rfloor_json.get_string "name" v in
  if name = "" then Error "empty metric name"
  else
    let* kind = Rfloor_json.get_string "kind" v in
    let* labels = validate_labels v in
    let* () =
      match kind with
      | "counter" ->
        let* value = Rfloor_json.get_int "value" v in
        if value < 0 then
          Error (Printf.sprintf "counter %s has negative value %d" name value)
        else Ok ()
      | "gauge" ->
        let* _ = Rfloor_json.get_num_opt "value" v in
        Ok ()
      | "histogram" ->
        let* buckets = Rfloor_json.get_arr "buckets" v in
        let* count = Rfloor_json.get_int "count" v in
        if count < 0 then
          Error (Printf.sprintf "histogram %s has negative count" name)
        else if buckets = [] then
          Error (Printf.sprintf "histogram %s has no buckets" name)
        else
          let* _ = Rfloor_json.get_num_opt "sum" v in
          let rec check prev_le prev_cum last_null = function
            | [] ->
              if not last_null then
                Error
                  (Printf.sprintf
                     "histogram %s lacks the +Inf (null) final bucket" name)
              else if prev_cum <> count then
                Error
                  (Printf.sprintf
                     "histogram %s: final cumulative count %d <> count %d" name
                     prev_cum count)
              else Ok ()
            | Rfloor_json.Arr [ le; Rfloor_json.Num cum ] :: rest -> (
              match Rfloor_json.int_of_num cum with
              | _ when last_null ->
                Error
                  (Printf.sprintf "histogram %s: bucket after +Inf" name)
              | Some cum when cum >= 0 ->
                if cum < prev_cum then
                  Error
                    (Printf.sprintf
                       "histogram %s: cumulative bucket counts decrease" name)
                else (
                  match le with
                  | Rfloor_json.Null -> check prev_le cum true rest
                  | Rfloor_json.Num le ->
                    if (match prev_le with Some p -> le <= p | None -> false)
                    then
                      Error
                        (Printf.sprintf
                           "histogram %s: bucket bounds must strictly increase"
                           name)
                    else check (Some le) cum false rest
                  | _ ->
                    Error
                      (Printf.sprintf
                         "histogram %s: bucket bound must be a number or null"
                         name))
              | _ ->
                Error
                  (Printf.sprintf
                     "histogram %s: bucket count must be a non-negative integer"
                     name))
            | _ ->
              Error
                (Printf.sprintf
                   "histogram %s: each bucket must be a [bound, count] pair"
                   name)
          in
          check None 0 false buckets
      | k -> Error (Printf.sprintf "unknown metric kind %S" k)
    in
    Ok (name, labels)

let validate_json_value doc =
  let* schema = Rfloor_json.get_string "schema" doc in
  if schema <> schema_version then
    Error (Printf.sprintf "unknown schema %S (expected %S)" schema schema_version)
  else
    let* metrics = Rfloor_json.get_arr "metrics" doc in
    let rec go seen n = function
      | [] -> Ok n
      | m :: rest ->
        let* key = validate_metric m in
        if List.mem key seen then
          Error (Printf.sprintf "duplicate series %s" (fst key))
        else go (key :: seen) (n + 1) rest
    in
    go [] 0 metrics

let validate_json text =
  match Rfloor_json.parse text with
  | Error e -> Error e
  | Ok doc -> validate_json_value doc
