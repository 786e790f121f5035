(** Schedule search-space points (see space.mli). *)

type point = {
  fuse : bool;
  split : int;
  pad : int;
  op_split : bool;
  grid : bool;
  aux : (string * int) list;
}

let make ?(fuse = false) ?(split = 0) ?(pad = 0) ?(op_split = false) ?(grid = false)
    ?(aux = []) () =
  {
    fuse;
    split;
    pad;
    op_split;
    grid;
    aux = List.sort (fun (a, _) (b, _) -> String.compare a b) aux;
  }

let aux_get p name ~default =
  match List.assoc_opt name p.aux with Some v -> v | None -> default

let equal (a : point) (b : point) = a = b

let to_string p =
  let parts =
    (if p.fuse then [ "fuse" ] else [])
    @ (if p.split > 0 then [ Printf.sprintf "split=%d" p.split ] else [])
    @ (if p.pad > 0 then [ Printf.sprintf "pad=%d" p.pad ] else [])
    @ (if p.op_split then [ "opsplit" ] else [])
    @ (if p.grid then [ "grid" ] else [])
    @ List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) p.aux
  in
  match parts with [] -> "hand" | _ -> String.concat "," parts
