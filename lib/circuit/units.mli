(** SI prefixes and engineering-notation formatting for circuit values. *)

val format_eng : ?unit_symbol:string -> float -> string
(** [format_eng ~unit_symbol:"A" 2.5e-5] is ["25u A" → "25uA"]-style
    engineering notation: mantissa in [\[1, 1000)] with the closest SI
    prefix, e.g. ["25uA"], ["10kOhm"], ["0"] for zero. *)

val parse_eng : string -> float option
(** Parse ["10k"], ["2.5u"], ["100meg"], ["3n"] etc.; [None] on syntax
    errors.  Case-insensitive; ["meg"] disambiguates from milli as in
    SPICE. *)
