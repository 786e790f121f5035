(** Operator graphs and activation-memory planning.

    The paper's prototype "generates code for individual operators ...
    invoked as part of a separate program that ties the operators together"
    (§C), and motivates ragged tensors partly by training-memory pressure
    (§7.2 "Memory Consumption", §D.5).  This module supplies that tying
    layer: a sequential operator graph with read/write sets inferred from
    the lowered kernels, buffer liveness analysis, and a greedy in-place
    memory planner that lets dead intermediates share storage — the
    standard inference-time memory optimisation, here on ragged buffers. *)

type node = {
  kernel : Lower.kernel;
  reads : Tensor.t list;
  writes : Tensor.t;
}

type t = {
  nodes : node list;  (** program order *)
  tensors : Tensor.t list;  (** all tensors the kernels touch *)
  inputs : Tensor.t list;  (** externally provided (never reused) *)
  outputs : Tensor.t list;  (** externally observed (never reused) *)
}

let buffers_of_kernel (k : Lower.kernel) =
  let bufs = ref Ir.Var.Set.empty in
  let scan_expr () e =
    Ir.Expr.fold
      (fun () -> function Ir.Expr.Load { buf; _ } -> bufs := Ir.Var.Set.add buf !bufs | _ -> ())
      () e
  in
  Ir.Stmt.fold_exprs (fun () e -> scan_expr () e) () k.Lower.body;
  !bufs

(** Build a graph from kernels in program order; reads are inferred from
    the loads in each kernel's body. *)
let make ~(tensors : Tensor.t list) ~(inputs : Tensor.t list) ~(outputs : Tensor.t list)
    (kernels : Lower.kernel list) : t =
  let by_buf = Hashtbl.create 16 in
  List.iter (fun (t : Tensor.t) -> Hashtbl.replace by_buf t.Tensor.buf.Ir.Var.id t) tensors;
  let nodes =
    List.map
      (fun (k : Lower.kernel) ->
        let reads =
          Ir.Var.Set.fold
            (fun v acc ->
              match Hashtbl.find_opt by_buf v.Ir.Var.id with
              | Some t when not (t == k.Lower.out) -> t :: acc
              | _ -> acc)
            (buffers_of_kernel k) []
        in
        { kernel = k; reads; writes = k.Lower.out })
      kernels
  in
  { nodes; tensors; inputs; outputs }

(** Liveness: for each intermediate tensor, its [first write, last read]
    range in program order (a tensor read before any write — an external
    input — is live from the start). *)
let liveness (g : t) : (Tensor.t * int * int) list =
  let n = List.length g.nodes in
  let ranges = Hashtbl.create 16 in
  List.iteri
    (fun i node ->
      let touch first (t : Tensor.t) =
        let lo, hi =
          match Hashtbl.find_opt ranges t.Tensor.buf.Ir.Var.id with
          | Some (_, lo, hi) -> (lo, hi)
          | None -> ((if first then i else 0), i)
        in
        Hashtbl.replace ranges t.Tensor.buf.Ir.Var.id (t, min lo i, max hi i)
      in
      touch true node.writes;
      List.iter (touch false) node.reads)
    g.nodes;
  ignore n;
  Hashtbl.fold (fun _ r acc -> r :: acc) ranges []
  |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)

(** A memory plan: each tensor is assigned a storage slot; tensors with
    disjoint live ranges may share a slot. *)
type plan = {
  slot_of : (int, int) Hashtbl.t;  (** tensor buf id -> slot *)
  slot_bytes : int array;  (** size of each slot *)
}

let is_external g (t : Tensor.t) =
  List.exists (fun x -> x == t) g.inputs || List.exists (fun x -> x == t) g.outputs

(** Greedy interval-graph colouring: walk tensors by first-write order and
    place each in the first slot whose current occupant is dead. *)
let plan (g : t) ~(lenv : Lenfun.env) : plan =
  let ranges = liveness g in
  let slot_of = Hashtbl.create 16 in
  let slots : (int * int) list ref = ref [] (* (free_at, bytes) per slot *) in
  List.iter
    (fun ((t : Tensor.t), lo, hi) ->
      if not (is_external g t) then begin
        let bytes = 4 * Tensor.size_elems t ~lenv in
        let rec place i = function
          | (free_at, sz) :: rest ->
              if free_at < lo then begin
                (* reuse slot i *)
                slots :=
                  List.mapi (fun j s -> if j = i then (hi, max sz bytes) else s) !slots;
                i
              end
              else place (i + 1) rest
          | [] ->
              slots := !slots @ [ (hi, bytes) ];
              List.length !slots - 1
        in
        let slot = place 0 !slots in
        Hashtbl.replace slot_of t.Tensor.buf.Ir.Var.id slot
      end)
    ranges;
  { slot_of; slot_bytes = Array.of_list (List.map snd !slots) }

(** Peak intermediate-activation bytes without reuse (every tensor gets its
    own buffer). *)
let naive_bytes (g : t) ~lenv =
  List.fold_left
    (fun acc t -> if is_external g t then acc else acc + (4 * Tensor.size_elems t ~lenv))
    0 g.tensors

(** Intermediate-activation bytes under the plan. *)
let planned_bytes (p : plan) = Array.fold_left ( + ) 0 p.slot_bytes

(** Execute the graph with the plan's buffer sharing: tensors in the same
    slot alias one buffer.  External tensors keep their own buffers (from
    [bindings]). *)
let execute (g : t) (p : plan) ~(lenv : Lenfun.env)
    ~(bindings : (Tensor.t * Runtime.Buffer.t) list) : Runtime.Interp.env option * Prelude.built =
  let slot_bufs = Array.map (fun bytes -> Runtime.Buffer.float_buf ((bytes + 3) / 4)) p.slot_bytes in
  let all_bindings =
    bindings
    @ List.filter_map
        (fun (t : Tensor.t) ->
          match Hashtbl.find_opt p.slot_of t.Tensor.buf.Ir.Var.id with
          | Some slot -> Some (t, slot_bufs.(slot))
          | None -> None)
        g.tensors
  in
  Exec.run ~lenv ~bindings:all_bindings (List.map (fun n -> n.kernel) g.nodes)
