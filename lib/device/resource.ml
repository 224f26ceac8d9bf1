type kind = Clb | Bram | Dsp | Io

let all_kinds = [ Clb; Bram; Dsp; Io ]

let kind_to_string = function
  | Clb -> "CLB"
  | Bram -> "BRAM"
  | Dsp -> "DSP"
  | Io -> "IO"

let kind_to_char = function Clb -> 'C' | Bram -> 'B' | Dsp -> 'D' | Io -> 'I'

let kind_of_char = function
  | 'C' | 'c' -> Some Clb
  | 'B' | 'b' -> Some Bram
  | 'D' | 'd' -> Some Dsp
  | 'I' | 'i' -> Some Io
  | _ -> None

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

let equal_kind (a : kind) b = a = b

type tile_type = { kind : kind; variant : int }

let tile_type ?(variant = 0) kind = { kind; variant }
let equal_tile_type (a : tile_type) b = a = b

let pp_tile_type ppf { kind; variant } =
  if variant = 0 then pp_kind ppf kind
  else Format.fprintf ppf "%a'%d" pp_kind kind variant

let default_frames = function Clb -> 36 | Bram -> 30 | Dsp -> 28 | Io -> 36

type demand = (kind * int) list

let demand_tiles d = List.fold_left (fun acc (_, n) -> acc + n) 0 d

let demand_get d k =
  List.fold_left (fun acc (k', n) -> if equal_kind k k' then acc + n else acc) 0 d

let demand_frames ~frames d =
  List.fold_left (fun acc (k, n) -> acc + (frames k * n)) 0 d

let pp_demand ppf d =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (k, n) -> Format.fprintf ppf "%d %a" n pp_kind k)
    ppf
    (List.filter (fun (_, n) -> n > 0) d)
