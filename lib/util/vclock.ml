(* A process-wide virtual clock, in integer nanoseconds.

   Deterministic subsystems (the fiber machine, the schedulers, the
   httpsim world) each keep their own notion of virtual time; this
   clock is the shared rendezvous the observability layer reads when an
   event site does not pass an explicit timestamp.  It never consults
   the host clock, so anything stamped from it is reproducible. *)

let clock = ref 0

let now () = !clock
