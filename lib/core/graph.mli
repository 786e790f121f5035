(** Operator graphs and activation-memory planning — the layer that "ties
    the operators together" (§C), plus the training-memory optimisation the
    paper motivates (§7.2, §D.5): buffer liveness analysis and greedy
    in-place reuse of dead intermediates, on ragged storage. *)

type node = {
  kernel : Lower.kernel;
  reads : Tensor.t list;  (** inferred from the kernel's loads *)
  writes : Tensor.t;
}

type t = {
  nodes : node list;  (** program order *)
  tensors : Tensor.t list;
  inputs : Tensor.t list;  (** externally provided; never reused *)
  outputs : Tensor.t list;  (** externally observed; never reused *)
}

val make :
  tensors:Tensor.t list -> inputs:Tensor.t list -> outputs:Tensor.t list ->
  Lower.kernel list -> t

(** [first write, last read] program-order range per tensor. *)
val liveness : t -> (Tensor.t * int * int) list

type plan = {
  slot_of : (int, int) Hashtbl.t;  (** tensor buffer id -> slot *)
  slot_bytes : int array;
}

(** Greedy interval colouring: tensors with disjoint live ranges share a
    slot (validated by the test suite: aliased execution is identical). *)
val plan : t -> lenv:Lenfun.env -> plan

(** Peak intermediate bytes without / with reuse. *)
val naive_bytes : t -> lenv:Lenfun.env -> int

val planned_bytes : plan -> int

(** Execute with the plan's buffer sharing; [bindings] supplies the
    external tensors' buffers. *)
val execute :
  t -> plan -> lenv:Lenfun.env -> bindings:(Tensor.t * Runtime.Buffer.t) list ->
  Runtime.Interp.env option * Prelude.built
