let handler_info_words = 4

let context_words = 2

let trap_words = 2

let return_pc_words = 1

let preamble_words = handler_info_words + context_words + trap_words + return_pc_words

let ret_to_parent = -101

let cb_done = -102

let main_done = -103

let trap_forward = -104

let c_trap = -105

let main_uncaught = -106

let is_sentinel pc = pc <= -101 && pc >= -106
