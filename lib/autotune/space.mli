(** Schedule search-space points.

    A point is one candidate assignment of the schedule knobs a workload
    exposes to the tuner: split factor of the primary data axis, loop
    padding multiple, fused vs. nested ragged loops, operation splitting
    ({!Cora.Schedule.range_mode} [Tiles_only]/[Tail_only] pair), whether
    the outer loops are bound to the device grid, and workload-specific
    extra knobs carried as named integers (e.g. the encoder's feature
    tile).  The {e interpretation} of a point lives with each workload's
    [build_tuned]; the record here is only the coordinate system, so the
    tuner, the flight recorder and the bench can all render and compare
    candidates uniformly.

    Every point must denote a schedule whose output is bitwise-identical
    to the hand schedule's: transformations are restricted to data axes
    (never reordering or splitting a reduction), and storage layouts are
    untouched — the serving layer's [--smoke] replay enforces this. *)

type point = {
  fuse : bool;  (** vloop-fuse the batch axis with its dependent ragged axis *)
  split : int;  (** split factor of the primary data axis; 0 = no split *)
  pad : int;  (** loop-padding multiple; 0 = keep the hand schedule's *)
  op_split : bool;
      (** operation splitting: lower the split pair twice, as a
          [Tiles_only] main kernel plus a [Tail_only] remainder kernel *)
  grid : bool;  (** bind the outer loops to the device grid *)
  aux : (string * int) list;  (** workload-specific knobs, sorted by name *)
}

val make :
  ?fuse:bool ->
  ?split:int ->
  ?pad:int ->
  ?op_split:bool ->
  ?grid:bool ->
  ?aux:(string * int) list ->
  unit ->
  point

(** Named extra knob, with a default when the point does not carry it. *)
val aux_get : point -> string -> default:int -> int

val equal : point -> point -> bool

(** Compact rendering for logs, flight records and BENCH JSON, e.g.
    ["fuse,split=8,pad=8,grid"] or ["jtile=16,ftile=4"]. *)
val to_string : point -> string
