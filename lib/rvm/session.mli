(** Boot a VM for one program run: prelude and user source compile as one
    unit (sharing the inline-cache space), builtins are installed, and the
    main thread is created with its toplevel frame. *)

type t = {
  vm : Vm.t;
  program : Value.program;
  main : Vmthread.t;
  syms : Sym.state;  (** this session's interning context *)
  uids : Value.uid_state;  (** this session's code-uid counter *)
}

val activate : t -> unit
(** Make this session's interning context and uid counter the domain's
    active ones. The runner calls it on every entry ([run]/[advance]), so
    several sessions — e.g. N VM shards — can interleave on one domain or
    migrate across domains without sharing state. *)

val create :
  ?opts:Options.t ->
  ?htm_mode:Htm_sim.Htm.mode ->
  Htm_sim.Machine.t ->
  source:string ->
  t
(** @raise Lexer.Error or Parser.Error with the line and column in
    [source] (the prelude compiled ahead of it is not counted), or
    Compiler.Error. *)
