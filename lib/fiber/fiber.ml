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
  ops : Retrofit_util.Ivec.t;
  shadow : shadow_frame Retrofit_util.Vec.t;
  traps : Retrofit_util.Ivec.t;
  mutable live : bool;
}

let create ~id ~seg ~parent ~handler =
  {
    id;
    seg;
    parent;
    handler;
    regs = { pc = 0; sp = 0; cfa = 0; fn = -1; exn_ptr = 0 };
    ops = Retrofit_util.Ivec.create ();
    shadow = Retrofit_util.Vec.create ();
    traps = Retrofit_util.Ivec.create ();
    live = true;
  }

let trap_count t = Retrofit_util.Ivec.length t.traps / 2

let trap_addr t i = Retrofit_util.Ivec.get t.traps (2 * i)

let offset_of t addr = Segment.top t.seg - addr

let sf_cfa t sf = Segment.top t.seg - sf.sf_cfa_off

let sf_caller_cfa t sf = Segment.top t.seg - sf.sf_caller_cfa_off

let shift delta addr = if addr = 0 then 0 else addr + delta

let rebase t ~delta =
  t.regs.sp <- shift delta t.regs.sp;
  t.regs.cfa <- shift delta t.regs.cfa;
  t.regs.exn_ptr <- shift delta t.regs.exn_ptr;
  for i = 0 to trap_count t - 1 do
    Retrofit_util.Ivec.set t.traps (2 * i) (trap_addr t i + delta)
  done
