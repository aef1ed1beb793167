#include <iostream>

#include "cli.h"

int main(int argc, char** argv) {
  return copyattack::tools::RunCli(argc, argv, std::cout);
}
