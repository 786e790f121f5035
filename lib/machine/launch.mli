(** Kernel launch timing: builds the launch-time environment (length
    functions + prelude tables), enumerates the grid of thread blocks,
    costs each block, and schedules them.  A launch of several kernels is
    a {e horizontal fusion} (§4.1): one grid, one launch overhead. *)

type t = {
  kernels : Cora.Lower.kernel list;
  label : string;
}

val single : Cora.Lower.kernel -> t

(** Horizontally fuse several kernels into one launch (Fig. 5, step 3).
    Raises {!Cora.Hfusion.Illegal} on racy fusions. *)
val hfused : ?label:string -> Cora.Lower.kernel list -> t

(** Launch-time context shared by a pipeline's kernels. *)
type ctx = {
  device : Device.t;
  lenv : Cora.Lenfun.env;
  built : Cora.Prelude.built;
}

(** [?prelude] supplies already-built aux structures (e.g. a serving
    plan's) instead of building them here. *)
val make_ctx :
  ?prelude:Cora.Prelude.built ->
  device:Device.t -> lenv:Cora.Lenfun.env -> Cora.Lower.kernel list -> ctx
val cost_env : ctx -> Runtime.Cost_model.env

(** Per-block (cost_ns, bytes).  Compute-bound kernels are priced by
    lane-normalised operation counts; memory-bound ones by raw traffic
    against the per-processor bandwidth share. *)
val block_costs_bytes : ctx -> Cora.Lower.kernel -> (float * float) array

val block_costs : ctx -> Cora.Lower.kernel -> float array

(** Makespan of the launch's blocks plus the launch overhead; h-fused
    kernels' blocks execute concurrently. *)
val time : ctx -> t -> float

type pipeline_time = {
  kernels_ns : float;
  per_launch : (string * float) list;
  prelude_host_ns : float;
  prelude_copy_ns : float;
}

val total_ns : pipeline_time -> float

(** (host-build ns, host→device copy ns) of built aux structures. *)
val prelude_cost : device:Device.t -> Cora.Prelude.built -> float * float

(** Time a sequence of launches, including prelude build and host→device
    copy of the auxiliary structures (Fig. 4's runtime pipeline).
    With [?prelude] the supplied structures are reused: an earlier request
    with the same raggedness signature already built and copied them, so
    [prelude_host_ns] and [prelude_copy_ns] are both 0.  [?engine] /
    [?opt] tag the [launch.pipeline] span with the execution engine (and
    its optimization level) serving the request being priced. *)
val pipeline :
  ?engine:[ `Interp | `Compiled ] ->
  ?opt:Ir.Optimize.level ->
  ?prelude:Cora.Prelude.built ->
  device:Device.t -> lenv:Cora.Lenfun.env -> t list -> pipeline_time
