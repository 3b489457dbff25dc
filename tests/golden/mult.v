// Listing 6 at 4 bits: a 4x4 multiplier.
module mult (A, B, C);
  input [3:0] A;
  input [3:0] B;
  output [7:0] C;
  assign C = A * B;
endmodule
