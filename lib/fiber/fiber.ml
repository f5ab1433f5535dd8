type regs = {
  mutable pc : int;
  mutable sp : int;
  mutable cfa : int;
  mutable fn : int;
  mutable exn_ptr : int;
}

type shadow_frame = {
  sf_fn : int;
  sf_ra : int;
  sf_caller_cfa_off : int;
  sf_caller_fn : int;
  sf_cfa_off : int;
  sf_ops_base : int;
}

type t = {
  id : int;
  mutable seg : Segment.t;
  mutable parent : t option;
  mutable handler : Compile.handle_desc option;
  regs : regs;
  ops : int Retrofit_util.Vec.t;
  shadow : shadow_frame Retrofit_util.Vec.t;
  traps : (int * int) Retrofit_util.Vec.t;
  mutable live : bool;
}

let create ~id ~seg ~parent ~handler =
  {
    id;
    seg;
    parent;
    handler;
    regs = { pc = 0; sp = 0; cfa = 0; fn = -1; exn_ptr = 0 };
    ops = Retrofit_util.Vec.create ();
    shadow = Retrofit_util.Vec.create ();
    traps = Retrofit_util.Vec.create ();
    live = true;
  }

let offset_of t addr = Segment.top t.seg - addr

let sf_cfa t sf = Segment.top t.seg - sf.sf_cfa_off

let sf_caller_cfa t sf = Segment.top t.seg - sf.sf_caller_cfa_off

let shift delta addr = if addr = 0 then 0 else addr + delta

let rebase t ~delta =
  t.regs.sp <- shift delta t.regs.sp;
  t.regs.cfa <- shift delta t.regs.cfa;
  t.regs.exn_ptr <- shift delta t.regs.exn_ptr;
  Retrofit_util.Vec.iteri
    (fun i (addr, depth) -> Retrofit_util.Vec.set t.traps i (addr + delta, depth))
    t.traps
